package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"crophe"
	"crophe/internal/bench"
	"crophe/internal/serve"
)

// serve-mix: open loop at a fixed Poisson rate into an in-process
// serve.Server on 127.0.0.1:0, through serve.Client over at most two
// connections. Four request classes: memo-warm /v1/schedule (a
// minority), deadline-bounded /v1/schedule whose anytime search is
// sometimes cut short, /v1/simulate, and /v1/simulate-degraded on the
// CROPHE meshes. Latency runs from each request's due time, so a stall
// also charges the requests queued behind it.

const (
	// serveRate is the arrival rate, well under the server's capacity.
	serveRate = 8.0
	// serveConns bounds the client's connections to two, the core count
	// the mix is sized for; requests due while both are busy wait in the
	// client.
	serveConns = 2
	// serveInFlight bounds the generator's outstanding requests (the
	// server's default admission queue depth); the generator runs late
	// only beyond it.
	serveInFlight = 64
	// serveSLO is the latency limit of slo_frac.
	serveSLO = 250 * time.Millisecond
)

var (
	serveHWs       = []string{"crophe64", "crophe36"}
	serveWorkloads = []string{"bootstrapping", "helr", "resnet20", "resnet110"}
	serveDataflows = []string{"crophe", "mad"}
	// serveDeadlinesMS are the search deadlines. An uncut search of these
	// workloads takes 10–21 ms on two cores, so most are cut and some
	// finish.
	serveDeadlinesMS = []int{4, 8, 16}
	serveFaults      = "links:2,banks:4,hbm:0.8,stalls:4@200,flip:0.001"
)

// Request classes, with their share of one round of the mix: memo 16,
// search 24, simulate 32 and degraded 16 of 88 requests.
const (
	classMemo     = "memo"
	classSearch   = "search"
	classSimulate = "simulate"
	classDegraded = "degraded"
)

type serveReq struct {
	class string
	key   string
	sched serve.ScheduleRequest
	deg   serve.DegradedRequest
}

// serveWant is the direct library result a non-anytime response must
// equal.
type serveWant struct {
	timeMS, dram, sram, noc float64
	simCycles, simTimeMS    float64
	faultCount              int
}

type serveMix struct {
	srv    *serve.Server
	hc     *http.Client
	client *serve.Client
	base   string
	reqs   []serveReq // in send order
	due    []time.Duration
	// want holds the direct library result of each distinct request,
	// computed after the load phase.
	want map[string]serveWant
}

func setupServeMix(seed int64, seconds int) (instance, error) {
	// Each set-up starts from a cold schedule memo and warms it itself.
	bench.ResetScheduleMemo()
	b := &serveMix{want: map[string]serveWant{}}
	b.srv = serve.New(serve.Config{Addr: "127.0.0.1:0"})
	if err := b.srv.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	b.base = "http://" + b.srv.Addr()
	b.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}}
	b.client = serve.NewClient(b.base, serve.WithHTTPClient(b.hc), serve.WithRetry(0, 0, 0))
	if err := b.prepare(seed, seconds); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// prepare builds the seeded request sequence and warms the server's
// schedule memo and connections. Each round of the mix holds every
// distinct request of the memo, search and simulate classes, and the
// degraded requests of that round's own seeded fault plans.
func (b *serveMix) prepare(seed int64, seconds int) error {
	ctx := context.Background()
	var base []serveReq // the part of a round every round shares
	for _, hw := range serveHWs {
		for _, wl := range serveWorkloads {
			for _, df := range serveDataflows {
				r := serve.ScheduleRequest{HW: hw, Workload: wl, Dataflow: df}
				memo := serveReq{class: classMemo, key: "memo/" + hw + "/" + wl + "/" + df, sched: r}
				// Warm the memo through the server, as a client would.
				if _, err := b.send(ctx, memo); err != nil {
					return fmt.Errorf("%s warm-up: %w", memo.key, err)
				}
				sim := serveReq{class: classSimulate, key: "simulate/" + hw + "/" + wl + "/" + df, sched: r}
				base = append(base, memo, sim, sim)
			}
			for _, dl := range serveDeadlinesMS {
				r := serve.ScheduleRequest{HW: hw, Workload: wl, DeadlineMS: dl}
				base = append(base, serveReq{class: classSearch, key: fmt.Sprintf("search/%s/%s/%dms", hw, wl, dl), sched: r})
			}
		}
	}
	perRound := len(base) + 2*len(serveHWs)*len(serveWorkloads)
	rounds := max(1, int(math.Round(serveRate*float64(seconds)/float64(perRound))))
	for r := 0; r < rounds; r++ {
		b.reqs = append(b.reqs, base...)
		for hi, hw := range serveHWs {
			for wi, wl := range serveWorkloads {
				// A plan of its own for every degraded request of the
				// round, so a run averages over many plans.
				fs, err := liveFaultSeed(hw, seed*10000+int64((r*len(serveHWs)+hi)*len(serveWorkloads)+wi)*10)
				if err != nil {
					return err
				}
				d := serveReq{class: classDegraded, key: fmt.Sprintf("degraded/%s/%s/fault-seed-%d", hw, wl, fs),
					deg: serve.DegradedRequest{HW: hw, Workload: wl, Faults: serveFaults, Seed: fs}}
				b.reqs = append(b.reqs, d, d)
			}
		}
	}

	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(b.reqs), func(i, j int) { b.reqs[i], b.reqs[j] = b.reqs[j], b.reqs[i] })
	// Poisson arrivals conditioned on their count: n uniform times over
	// the run's span, sorted. Every seed offers the same n requests over
	// the same span, so the offered rate is exactly serveRate.
	span := float64(len(b.reqs)) / serveRate
	for range b.reqs {
		b.due = append(b.due, time.Duration(rng.Float64()*span*float64(time.Second)))
	}
	sort.Slice(b.due, func(i, j int) bool { return b.due[i] < b.due[j] })
	return nil
}

// liveFaultSeed picks the first fault seed, from the run's seed on,
// whose plan the hardware survives.
func liveFaultSeed(hwName string, seed int64) (int64, error) {
	hw, _ := crophe.LookupHW(hwName)
	spec, err := crophe.ParseFaultSpec(serveFaults)
	if err != nil {
		return 0, err
	}
	for s := seed; ; s++ {
		_, err := crophe.NewFaultMachine(hw, spec, s)
		if err == nil {
			return s, nil
		}
		if !errors.Is(err, crophe.ErrMachineDead) {
			return 0, fmt.Errorf("%s fault machine: %w", hwName, err)
		}
	}
}

// directCall runs a request straight through the library, as the
// server's handler would, without the serving stack.
func directCall(ctx context.Context, r serveReq) (serveWant, error) {
	if r.class == classDegraded {
		hw, _ := crophe.LookupHW(r.deg.HW)
		spec, err := crophe.ParseFaultSpec(r.deg.Faults)
		if err != nil {
			return serveWant{}, err
		}
		w, _ := crophe.LookupWorkload(r.deg.Workload, crophe.DefaultParamsFor(hw), crophe.RotHoisted)
		m, err := crophe.NewFaultMachine(hw, spec, r.deg.Seed)
		if err != nil {
			return serveWant{}, err
		}
		res, _, err := crophe.SimulateDegraded(ctx, m, w)
		if err != nil {
			return serveWant{}, err
		}
		return serveWant{timeMS: res.TimeSec * 1e3, simCycles: res.Cycles, faultCount: m.Plan.FaultCount()}, nil
	}
	hw, _ := crophe.LookupHW(r.sched.HW)
	w, _ := crophe.LookupWorkload(r.sched.Workload, crophe.DefaultParamsFor(hw), crophe.RotHoisted)
	d := crophe.CROPHEDesign(hw)
	if r.sched.Dataflow == "mad" {
		d = crophe.MADDesign(hw)
	}
	deadline := time.Duration(r.sched.DeadlineMS) * time.Millisecond
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	if r.class == classSimulate {
		res, s, err := crophe.SimulateWorkloadContext(ctx, d, w, deadline)
		if err != nil {
			return serveWant{}, err
		}
		return serveWant{timeMS: s.TimeSec * 1e3, dram: s.Traffic.DRAM, sram: s.Traffic.SRAM, noc: s.Traffic.NoC,
			simCycles: res.Cycles, simTimeMS: res.TimeSec * 1e3}, nil
	}
	s, err := crophe.ScheduleWorkload(ctx, d, w, deadline)
	if err != nil {
		return serveWant{}, err
	}
	return serveWant{timeMS: s.TimeSec * 1e3, dram: s.Traffic.DRAM, sram: s.Traffic.SRAM, noc: s.Traffic.NoC}, nil
}

// served is what a response reports, in serveWant's terms.
type served struct {
	serveWant
	partial bool
}

// send issues one request through the client.
func (b *serveMix) send(ctx context.Context, r serveReq) (served, error) {
	switch r.class {
	case classDegraded:
		resp, err := b.client.SimulateDegraded(ctx, r.deg)
		if err != nil {
			return served{}, err
		}
		return served{serveWant: serveWant{timeMS: resp.TimeMS, simCycles: resp.Cycles, faultCount: resp.FaultCount}, partial: resp.Partial}, nil
	case classSimulate:
		resp, err := b.client.Simulate(ctx, r.sched)
		if err != nil {
			return served{}, err
		}
		if resp.SimCycles == nil || resp.SimTimeMS == nil {
			return served{}, fmt.Errorf("simulate response without simulation fields")
		}
		return served{serveWant: serveWant{timeMS: resp.TimeMS, dram: resp.DRAMBytes, sram: resp.SRAMBytes, noc: resp.NoCBytes,
			simCycles: *resp.SimCycles, simTimeMS: *resp.SimTimeMS}, partial: resp.Partial}, nil
	default:
		resp, err := b.client.Schedule(ctx, r.sched)
		if err != nil {
			return served{}, err
		}
		return served{serveWant: serveWant{timeMS: resp.TimeMS, dram: resp.DRAMBytes, sram: resp.SRAMBytes, noc: resp.NoCBytes}, partial: resp.Partial}, nil
	}
}

// check compares a response with the direct library result; an anytime
// (deadline-bounded) response is cut by the wall clock, so it is only
// checked for being a usable schedule.
func (b *serveMix) check(r serveReq, got served) error {
	if r.class == classSearch {
		if !finite(got.timeMS) || got.timeMS <= 0 {
			return fmt.Errorf("%s: schedule time %v ms is not finite and positive", r.key, got.timeMS)
		}
		return nil
	}
	if got.partial {
		return fmt.Errorf("%s: partial result without a deadline", r.key)
	}
	if want := b.want[r.key]; got.serveWant != want {
		return fmt.Errorf("%s: response %+v differs from the direct library result %+v", r.key, got.serveWant, want)
	}
	return nil
}

func (b *serveMix) sloLimit() time.Duration { return serveSLO }

func (b *serveMix) digest() string {
	items := map[string]uint64{}
	for _, k := range sortedKeys(b.want) {
		if strings.HasPrefix(k, classSearch+"/") {
			continue // cut by the wall clock, so not reproducible
		}
		w := b.want[k]
		d := newDigest()
		d.f(w.timeMS, w.dram, w.sram, w.noc, w.simCycles, w.simTimeMS)
		d.i(w.faultCount)
		items[k] = d.sum()
	}
	return combine(items)
}

func (b *serveMix) close() error {
	b.hc.CloseIdleConnections()
	return b.srv.Shutdown()
}

// serverVars are the /debug/vars request counters the layer metrics use.
type serverVars struct {
	Requests struct {
		Served     float64 `json:"served"`
		Shed       float64 `json:"shed"`
		QueueWaits float64 `json:"queue_waits"`
	} `json:"requests"`
}

func (b *serveMix) vars() (serverVars, error) {
	var v serverVars
	resp, err := b.hc.Get(b.base + "/debug/vars")
	if err != nil {
		return v, fmt.Errorf("debug vars: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return v, fmt.Errorf("decoding debug vars: %w", err)
	}
	return v, nil
}

func (b *serveMix) run(tr *tracer) (*phase, error) {
	v0, err := b.vars()
	if err != nil {
		return nil, err
	}
	memo0 := crophe.ScheduleMemoStats()
	n := len(b.reqs)
	ph := &phase{layers: map[string]float64{}, ops: make([]opResult, n)}
	late := make([]float64, n)
	got := make([]served, n)
	ctx := context.Background()

	ph.before = sampleProc()
	start := time.Now()
	inflight := make(chan struct{}, serveInFlight) // a counting semaphore
	var wg sync.WaitGroup
	for i := range b.reqs {
		due := start.Add(b.due[i])
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		inflight <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-inflight }()
			r := b.reqs[i]
			var rtr *tracer
			if i%2 == 1 {
				rtr = tr
			}
			root := rtr.beginAt("op", -1, i, due)
			rtr.end(rtr.beginAt("loadgen.wait", root, i, due))
			late[i] = ms(time.Since(due))
			var err error
			rtr.call("serve."+r.class, root, i, func() { got[i], err = b.send(ctx, r) })
			lat := time.Since(due)
			rtr.end(root)
			ph.ops[i] = opResult{lat: lat, err: err, traced: rtr != nil, key: r.key}
		}()
	}
	wg.Wait()
	ph.after = sampleProc()
	b.printClasses(ph.ops)

	// The same requests straight through the library, one at a time and
	// off the clock: their results are what the responses must equal,
	// and in a traced run each class's client-observed p50 minus its
	// direct p50 is the serving overhead of that class.
	for _, r := range b.reqs {
		if _, done := b.want[r.key]; done || (r.class == classSearch && tr == nil) {
			continue
		}
		var w serveWant
		var err error
		span := "core." + r.class
		if r.class == classMemo {
			span = "direct"
		}
		tr.call(span, -1, -1, func() { w, err = directCall(ctx, r) })
		if err != nil {
			return nil, fmt.Errorf("%s direct: %w", r.key, err)
		}
		b.want[r.key] = w
	}
	for i, r := range b.reqs {
		if ph.ops[i].err == nil {
			ph.ops[i].err = b.check(r, got[i])
		}
	}
	if tr == nil {
		return ph, nil
	}

	v1, err := b.vars()
	if err != nil {
		return nil, err
	}
	memo1 := crophe.ScheduleMemoStats()
	if served := v1.Requests.Served - v0.Requests.Served; served > 0 {
		ph.layers["serve.queue_wait_frac"] = (v1.Requests.QueueWaits - v0.Requests.QueueWaits) / served
		ph.layers["serve.shed_frac"] = (v1.Requests.Shed - v0.Requests.Shed) / (served + v1.Requests.Shed - v0.Requests.Shed)
	}
	if lookups := (memo1.Hits - memo0.Hits) + (memo1.Misses - memo0.Misses); lookups > 0 {
		ph.layers["bench.memo_hit_frac"] = float64(memo1.Hits-memo0.Hits) / float64(lookups)
	}
	var searches, cut float64
	for i, r := range b.reqs {
		if r.class == classSearch {
			searches++
			if got[i].partial {
				cut++
			}
		}
	}
	ph.layers["sched.partial_frac"] = cut / searches
	ph.layers["loadgen.late_p90_ms"] = rank(late, 90)
	ph.layers["serve.memo_ms"] = median(tr.durations("serve.memo"))
	for _, c := range []string{classSearch, classSimulate, classDegraded} {
		ph.layers["serve."+c+"_ms"] = median(tr.durations("serve." + c))
		ph.layers["core."+c+"_ms"] = median(tr.durations("core." + c))
	}
	return ph, nil
}

// printClasses reports each request class's latency, for reading a run's
// end-to-end figures; they are not metrics of their own.
func (b *serveMix) printClasses(ops []opResult) {
	lats := map[string][]float64{}
	for i, o := range ops {
		c := b.reqs[i].class
		lats[c] = append(lats[c], ms(o.lat))
	}
	for _, c := range []string{classMemo, classSearch, classSimulate, classDegraded} {
		fmt.Printf("class %-8s %4d requests: p50 %.1f ms, p90 %.1f ms\n", c, len(lats[c]), median(lats[c]), rank(lats[c], 90))
	}
}
