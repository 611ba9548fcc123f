// Small helpers shared by the gtest suites.
#ifndef ORCHESTRA_TESTS_TEST_UTIL_H_
#define ORCHESTRA_TESTS_TEST_UTIL_H_

#include <string>

namespace orchestra {

/// `prefix` followed by `n` in decimal, e.g. Numbered("k", 7) == "k7". Built
/// with an append: GCC 12 at -O3 reports false -Wrestrict overlaps on
/// `"k" + std::to_string(n)`, which would break the Release -Werror build.
template <typename N>
std::string Numbered(std::string prefix, N n) {
  return prefix.append(std::to_string(n));
}

}  // namespace orchestra

#endif  // ORCHESTRA_TESTS_TEST_UTIL_H_
