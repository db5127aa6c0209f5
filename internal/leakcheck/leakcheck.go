// Package leakcheck is the goroutine-leak check the executive, deployment,
// service and transport suites share: whatever a run, a job or a session
// started must be gone shortly after it returns.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// Goroutines records the current goroutine count as the baseline and returns
// the check. Call the check once the code under test has returned: it fails t
// unless the count is back at the baseline within a second (goroutines unwind
// after the WaitGroup or channel that released their caller), and the
// failure lists every goroutine's stack.
func Goroutines(t testing.TB) (check func()) {
	t.Helper()
	baseline := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > baseline {
			buf := make([]byte, 1<<20)
			t.Errorf("%d goroutines a second after the run, %d before it:\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
	}
}
