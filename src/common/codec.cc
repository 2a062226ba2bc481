#include "common/codec.h"

#include <charconv>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace i2mr {

std::string PaddedNum(uint64_t v, int width) {
  char buf[32];
  int n = std::snprintf(buf, sizeof(buf), "%0*llu", width,
                        static_cast<unsigned long long>(v));
  return std::string(buf, n);
}

StatusOr<uint64_t> ParseNum(std::string_view s) {
  if (s.empty()) return Status::InvalidArgument("empty number");
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("bad digit in number: " + std::string(s));
    }
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  return v;
}

StatusOr<double> ParseDouble(std::string_view s) {
  // Fast path: a plain decimal that from_chars consumes whole into a normal
  // number parses to the same correctly rounded value strtod gives. All else
  // (whitespace, '+', hex, inf/nan, zero, subnormal, out of range, trailing
  // bytes) takes the strtod path, so the accepted inputs and the values are
  // exactly strtod's.
  double d;
  auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), d);
  if (ec == std::errc() && end == s.data() + s.size() && std::isnormal(d)) {
    return d;
  }
  std::string tmp(s);
  errno = 0;
  char* stop = nullptr;
  d = std::strtod(tmp.c_str(), &stop);
  if (stop != tmp.c_str() + tmp.size() || errno == ERANGE) {
    return Status::InvalidArgument("bad double: " + tmp);
  }
  return d;
}

std::string FormatDouble(double d) {
  // Byte-identical to printf("%.17g") (nan/inf spelled the same), without
  // printf's format parsing and locale lookups.
  char buf[40];
  auto res = std::to_chars(buf, buf + sizeof(buf), d,
                           std::chars_format::general, 17);
  return std::string(buf, res.ptr);
}

}  // namespace i2mr
