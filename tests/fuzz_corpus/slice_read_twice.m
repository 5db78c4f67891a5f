function y = f(m)
  y = g(m(2, :), m(:, 3));
end

function r = g(x, w)
  r = x .* x + w(2);
end
