package serve

import (
	"context"
	"net/http"
	"testing"
)

// BenchmarkSweepRequest times one 16-rung crophe64/helr resilience sweep
// answered by POST /v1/sweeps through the typed client, on one server
// started outside the timer.
func BenchmarkSweepRequest(b *testing.B) {
	s := New(Config{Addr: "127.0.0.1:0"})
	if err := s.Start(); err != nil {
		b.Fatalf("Start: %v", err)
	}
	hc := &http.Client{}
	c := NewClient(s.Addr(), WithHTTPClient(hc))
	ctx := context.Background()
	req := SweepRequest{HW: "crophe64", Workload: "helr", Seed: 100, Steps: 16}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw, err := c.Sweep(ctx, req)
		if err != nil {
			b.Fatalf("sweep: %v", err)
		}
		if len(sw.Points) != req.Steps {
			b.Fatalf("sweep answered %d points; want %d", len(sw.Points), req.Steps)
		}
	}
	b.StopTimer()
	hc.CloseIdleConnections()
	if err := s.Shutdown(); err != nil {
		b.Fatalf("Shutdown: %v", err)
	}
}
