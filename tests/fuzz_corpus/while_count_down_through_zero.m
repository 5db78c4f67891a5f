function [s, i] = f(x)
s = 0;
i = 3;
while i >= -2
  s = s + x(i + 3) * i;
  i = i - 1;
end
end
