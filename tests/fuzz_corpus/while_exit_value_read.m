function [s, t] = f(x)
s = 0;
k = 1;
while k < 6
  s = s + x(k);
  k = k + 2;
end
t = k * 10;
end
