#include <cstdint>
#include <string>

namespace orchestra::deploy {
constexpr uint16_t kReplicaDigest = 21;
// Building a catch-up digest frame outside StorageService (a second
// encoder): must flag.
std::string ForkedDigestFrame() { return std::string(1, static_cast<char>(kReplicaDigest)); }
}  // namespace orchestra::deploy
