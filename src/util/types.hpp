#pragma once
// Strong scalar types used across logsim (Core Guidelines I.4: make
// interfaces precisely and strongly typed).  All simulated time is carried
// in microseconds as a double, matching the unit the paper quotes LogGP
// parameters in (L=9us etc. on the Meiko CS-2).

#include <compare>
#include <cstdint>
#include <limits>

namespace logsim {

/// Simulated time in microseconds.  A thin strong wrapper so that times,
/// byte counts and processor ids cannot be accidentally mixed.
class Time {
 public:
  constexpr Time() = default;
  constexpr explicit Time(double us) : us_(us) {}

  [[nodiscard]] constexpr double us() const { return us_; }
  [[nodiscard]] constexpr double ms() const { return us_ / 1e3; }
  [[nodiscard]] constexpr double sec() const { return us_ / 1e6; }

  [[nodiscard]] static constexpr Time zero() { return Time{0.0}; }
  [[nodiscard]] static constexpr Time infinity() {
    return Time{std::numeric_limits<double>::infinity()};
  }
  [[nodiscard]] constexpr bool is_infinite() const {
    return us_ == std::numeric_limits<double>::infinity();
  }

  constexpr Time& operator+=(Time rhs) { us_ += rhs.us_; return *this; }
  constexpr Time& operator-=(Time rhs) { us_ -= rhs.us_; return *this; }

  friend constexpr Time operator+(Time a, Time b) { return Time{a.us_ + b.us_}; }
  friend constexpr Time operator-(Time a, Time b) { return Time{a.us_ - b.us_}; }
  friend constexpr Time operator*(Time a, double k) { return Time{a.us_ * k}; }
  friend constexpr Time operator*(double k, Time a) { return Time{a.us_ * k}; }
  friend constexpr double operator/(Time a, Time b) { return a.us_ / b.us_; }
  friend constexpr Time operator/(Time a, double k) { return Time{a.us_ / k}; }

  friend constexpr auto operator<=>(Time, Time) = default;

 private:
  double us_ = 0.0;
};

namespace literals {
constexpr Time operator""_us(long double v) { return Time{static_cast<double>(v)}; }
constexpr Time operator""_us(unsigned long long v) { return Time{static_cast<double>(v)}; }
constexpr Time operator""_ms(long double v) { return Time{static_cast<double>(v) * 1e3}; }
constexpr Time operator""_ms(unsigned long long v) { return Time{static_cast<double>(v) * 1e3}; }
constexpr Time operator""_s(long double v) { return Time{static_cast<double>(v) * 1e6}; }
constexpr Time operator""_s(unsigned long long v) { return Time{static_cast<double>(v) * 1e6}; }
}  // namespace literals

/// Returns the later of two times.
[[nodiscard]] constexpr Time max(Time a, Time b) { return a < b ? b : a; }
/// Returns the earlier of two times.
[[nodiscard]] constexpr Time min(Time a, Time b) { return a < b ? a : b; }

/// Message / block size in bytes.
class Bytes {
 public:
  constexpr Bytes() = default;
  constexpr explicit Bytes(std::uint64_t n) : n_(n) {}
  [[nodiscard]] constexpr std::uint64_t count() const { return n_; }

  constexpr Bytes& operator+=(Bytes rhs) { n_ += rhs.n_; return *this; }
  friend constexpr Bytes operator+(Bytes a, Bytes b) { return Bytes{a.n_ + b.n_}; }
  friend constexpr auto operator<=>(Bytes, Bytes) = default;

 private:
  std::uint64_t n_ = 0;
};

/// Processor identifier: dense 0-based index into the machine.
using ProcId = std::int32_t;
inline constexpr ProcId kNoProc = -1;

/// Dense unsigned processor index used by the large-P simulation hot path
/// (structure-of-arrays scratch, CSR send/inbox arrays).
/// 32 bits keep the flat arrays half the size of size_t at P = 1M while
/// still covering every representable ProcId.
using ProcIndex = std::uint32_t;

/// Largest processor count the simulators accept: every id must fit both
/// ProcId (signed) and ProcIndex (unsigned).
inline constexpr std::int64_t kMaxSimProcs = std::int64_t{1} << 31;

/// Checked narrowing to a dense 32-bit index.  The large-P path refuses to
/// wrap silently: a value outside [0, limit) aborts with a diagnostic in
/// every build type (release included), because an aliased processor id
/// corrupts simulation results undetectably.
[[nodiscard]] std::uint32_t checked_index32(std::int64_t v, std::int64_t limit,
                                            const char* what);

}  // namespace logsim
