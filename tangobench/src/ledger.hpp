// Host-time ledger of the traced run: spans the benchmark opens around its
// own calls into each src/ layer.  A span's self time is its duration minus
// the spans nested in it (a delivery's rx span inside the scheduler's run
// span), so self times add up to the attributed total without counting any
// nanosecond twice.  Off, `time` is a plain call.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <utility>

namespace tangobench {

/// The timed call sites, one per layer entry point.
enum class Op : std::uint8_t {
  net_build,     ///< net::make_udp_packet / make_udp4_packet
  dp_tx,         ///< TangoSwitch::send_burst / send_from_host
  dp_rx,         ///< TangoSwitch::inject_wan (from the delivery wrapper)
  sim_run,       ///< EventQueue::run_until / Wan::run_all (+ burst injection)
  sim_sync,      ///< Wan::sync_fibs
  bgp_converge,  ///< BgpNetwork::withdraw / originate / remove_session / add_transit
  core_probe,    ///< TangoNode::send_probe_round
  kCount,
};

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Ledger {
 public:
  void set_on(bool on) noexcept { on_ = on; }
  [[nodiscard]] bool on() const noexcept { return on_; }

  /// Runs `fn`, charging its host time to `op` when the ledger is on.
  template <class Fn>
  decltype(auto) time(Op op, Fn&& fn) {
    if (!on_) return std::forward<Fn>(fn)();
    enter(op);
    struct Exit {
      Ledger& ledger;
      ~Exit() { ledger.exit(); }
    } guard{*this};
    return std::forward<Fn>(fn)();
  }

  [[nodiscard]] std::int64_t total_ns(Op op) const noexcept { return at(total_, op); }
  [[nodiscard]] std::int64_t self_ns(Op op) const noexcept { return at(self_, op); }
  [[nodiscard]] std::uint64_t calls(Op op) const noexcept { return at(calls_, op); }
  /// Host time inside outermost spans: everything the ledger attributes.
  [[nodiscard]] std::int64_t attributed_ns() const noexcept { return attributed_; }

 private:
  struct Frame {
    Op op = Op::kCount;
    std::int64_t start = 0;
    std::int64_t nested = 0;
  };
  static constexpr std::size_t kOps = static_cast<std::size_t>(Op::kCount);

  template <class T>
  static T at(const std::array<T, kOps>& a, Op op) noexcept {
    return a[static_cast<std::size_t>(op)];
  }

  void enter(Op op) noexcept { stack_[depth_++] = Frame{op, now_ns(), 0}; }
  void exit() noexcept {
    const Frame f = stack_[--depth_];
    const std::int64_t d = now_ns() - f.start;
    const auto i = static_cast<std::size_t>(f.op);
    total_[i] += d;
    self_[i] += d - f.nested;
    ++calls_[i];
    if (depth_ > 0) {
      stack_[depth_ - 1].nested += d;
    } else {
      attributed_ += d;
    }
  }

  bool on_ = false;
  std::array<Frame, 8> stack_{};
  std::size_t depth_ = 0;
  std::array<std::int64_t, kOps> total_{};
  std::array<std::int64_t, kOps> self_{};
  std::array<std::uint64_t, kOps> calls_{};
  std::int64_t attributed_ = 0;
};

}  // namespace tangobench
