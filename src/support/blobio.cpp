#include "support/blobio.h"

namespace cayman::support::blobio {

uint64_t fnv1a64(std::string_view bytes, uint64_t seed) {
  uint64_t hash = seed;
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace cayman::support::blobio
