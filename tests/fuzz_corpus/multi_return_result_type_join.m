function [v4, v5, s] = f(p1)
  [v4, v5] = sf2(complex(zeros(3, 1), zeros(3, 1)), double(p1));
  [s, t] = sc(double(p1(1)));
  w = sf2(double(p1), double(p1));
  if p1(1) > 100
    v4 = p1 + 1i;
    s = p1(2);
    w = p1 - 2i;
  end
  s = s + t + w(2);
end

function [r1, r2] = sf2(a, b)
  r1 = (a .* 1.6875) + b;
  r2 = a .* (b .* 1.75);
end

function [q1, q2] = sc(x)
  q1 = x * 0.5;
  q2 = x - 1;
end
