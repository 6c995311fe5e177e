// A small multi-block program for `make examples`: compiled twice over
// one -cache directory, the second compile takes every block from disk.
s = 0;
i = 0;
while (i < n) {
  if (i > k) { s = s + i * k; } else { s = s - i; }
  i = i + 1;
}
out = s * s;
