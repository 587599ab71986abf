// FNV-1a 64-bit content hashing (deterministic digests of printed output).
#pragma once

#include <cstdint>
#include <string_view>

namespace cayman::support::blobio {

/// FNV-1a 64-bit. `seed` chains multiple pieces: fnv1a64(b, fnv1a64(a))
/// hashes a||b.
inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
uint64_t fnv1a64(std::string_view bytes, uint64_t seed = kFnvOffset);

}  // namespace cayman::support::blobio
