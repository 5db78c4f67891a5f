function [s, k] = f(x, n)
s = 0;
k = 1;
while k <= n
  s = s + x(k) * k;
  k = k + 3;
end
end
