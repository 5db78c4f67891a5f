function [s, t] = f(x, n, m)
  s = 0;
  for i = 1:n
    s = s + x(i) * 2;
  end
  t = 0;
  for i = 1:m
    t = t + x(i);
  end
end
