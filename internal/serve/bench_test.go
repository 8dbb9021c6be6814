package serve

import (
	"context"
	"net/http"
	"testing"
	"time"
)

// BenchmarkSweepJob times one journaled 16-rung crophe64/helr sweep job
// from POST /v1/sweeps until polling reports it done. Every iteration
// gets a fresh server and checkpoint directory (outside the timer), so
// no job is deduplicated by ID or recovered from an earlier journal.
func BenchmarkSweepJob(b *testing.B) {
	ctx := context.Background()
	req := SweepRequest{HW: "crophe64", Workload: "helr", Seed: 100, Steps: 16}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := New(Config{Addr: "127.0.0.1:0", CheckpointDir: b.TempDir()})
		if err := s.Start(); err != nil {
			b.Fatalf("Start: %v", err)
		}
		hc := &http.Client{}
		c := NewClient("http://"+s.Addr(), WithHTTPClient(hc))
		b.StartTimer()

		st, err := c.StartSweep(ctx, req)
		for err == nil && st.State == jobRunning {
			time.Sleep(time.Millisecond)
			st, err = c.SweepStatus(ctx, st.ID)
		}
		b.StopTimer()
		if err != nil {
			b.Fatalf("sweep job: %v", err)
		}
		if st.State != jobDone || len(st.Points) != req.Steps {
			b.Fatalf("sweep job ended %s with %d points (error %q)", st.State, len(st.Points), st.Error)
		}
		hc.CloseIdleConnections()
		if err := s.Shutdown(); err != nil {
			b.Fatalf("Shutdown: %v", err)
		}
	}
}
