function y = f(m)
  x = m(2, :);
  m(2, 1) = 7;
  y = x .* 2;
end
