// Seeded-violation fixture for hetsgd-lint --self-test: the device model
// in src/backend/ is virtual-time only, so a raw clock read there is an
// ad-hoc timer. Never compiled.
#include <chrono>

namespace fixture {

double planted_clock_read() {
  auto t0 = std::chrono::steady_clock::now();  // EXPECT: adhoc-timer
  (void)t0;
  return 0.0;
}

}  // namespace fixture
