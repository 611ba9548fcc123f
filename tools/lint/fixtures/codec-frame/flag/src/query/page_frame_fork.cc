#include <cstdint>
#include <string>

namespace orchestra::query {
constexpr uint16_t kPutPage = 3;
// Building a page frame outside its codec (a second encoder): must flag.
std::string ForkedPageFrame() { return std::string(1, static_cast<char>(kPutPage)); }
}  // namespace orchestra::query
