// Seeded-violation fixture for hetsgd-lint --self-test.
//
// Every line tagged `// EXPECT: <rule>` must be reported by the linter;
// anything else in this file must NOT be. This file is never compiled —
// it exists only to pin the linter's behavior.
#include <fstream>
#include "common/timer.hpp"  // EXPECT: adhoc-timer

namespace fixture {

// hetsgd-lint: allow(adhoc-timer) fixture: local stand-in for the retired
// class so the use sites below have something to name
struct WallTimer {
  double seconds() const { return 0.0; }
};

struct Queue {
  bool push(int) { return true; }
  bool send(int) { return true; }
};

void planted_violations(Queue& q, Queue* qp) {
  q.push(1);  // EXPECT: unchecked-push
  qp->send(2);  // EXPECT: unchecked-push
  int* leak = new int(7);  // EXPECT: naked-new
  delete leak;  // EXPECT: naked-new
  std::printf("hello\n");  // EXPECT: stdout-logging
  std::ofstream raw("ckpt.bin");  // EXPECT: ckpt-ofstream
  (void)raw;
  WallTimer timer;  // EXPECT: adhoc-timer
  (void)timer.seconds();
}

void checked_and_waived(Queue& q) {
  // Checked results: none of these may be flagged.
  if (!q.push(1)) return;
  bool ok = q.send(2);
  (void)ok;
  // hetsgd-lint: allow(unchecked-push) fixture: fire-and-forget wakeup
  q.push(3);
  // A comment that merely *mentions* steady_clock::now or new Thing or
  // printf( must not be flagged; nor must "printf(" in a string literal:
  const char* s = "printf(%d) sleep_for new delete std::ofstream WallTimer";
  (void)s;
  // hetsgd-lint: allow(adhoc-timer) fixture: sanctioned timing shim
  WallTimer waived_timer;
  (void)waived_timer.seconds();
  // hetsgd-lint: allow(ckpt-ofstream) fixture: sanctioned write shim
  std::ofstream waived("shim.bin");
  (void)waived;
}

}  // namespace fixture
