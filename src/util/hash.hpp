#pragma once
// Shared structural hasher.  One implementation serves every structural key
// in the library (CommPattern::hash, core::program_hash,
// TopologySpec::hash, the prediction and comm-step cache keys), so two
// caches can never disagree about the encoding of the same object.
//
// Each step mixes a whole 64-bit word with one multiply and a rotate, and
// digest() ends with murmur3's fmix64 finalizer: shard selection and
// std::unordered_map read the low bits, so those must depend on every input
// bit.  Not a stored format -- no value is pinned or persisted.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace logsim::util {

class Hasher {
 public:
  void mix_u64(std::uint64_t w) {
    state_ = std::rotl((state_ ^ w) * kMul, 29);
  }
  void mix_i64(std::int64_t v) { mix_u64(static_cast<std::uint64_t>(v)); }
  void mix_double(double v) { mix_u64(std::bit_cast<std::uint64_t>(v)); }
  /// The length, then 8-byte chunks, then the zero-padded tail.
  void mix_bytes(const void* data, std::size_t len) {
    mix_u64(len);
    const auto* p = static_cast<const unsigned char*>(data);
    for (; len >= 8; p += 8, len -= 8) {
      std::uint64_t w = 0;
      std::memcpy(&w, p, 8);
      mix_u64(w);
    }
    if (len > 0) {
      std::uint64_t w = 0;
      std::memcpy(&w, p, len);
      mix_u64(w);
    }
  }

  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t h = state_;
    h = (h ^ (h >> 33)) * 0xff51afd7ed558ccdULL;
    h = (h ^ (h >> 33)) * 0xc4ceb9fe1a85ec53ULL;
    return h ^ (h >> 33);
  }

 private:
  static constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  std::uint64_t state_ = 0x243f6a8885a308d3ULL;
};

}  // namespace logsim::util
