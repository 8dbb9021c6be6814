// Package baseline assembles the evaluated design points of the paper:
// each baseline accelerator (BTS, ARK, SHARP, CL+) reproduced with MAD
// scheduling on its own parameter set, paired with the CROPHE variant of
// matching word width (§VI: a 64-bit CROPHE against BTS/ARK, a 36-bit one
// against SHARP, and the same configuration scaled to 28 bits against
// CraterLake).
package baseline

import (
	"crophe/internal/arch"
	"crophe/internal/sched"
	"crophe/internal/workload"
)

// Pairing couples a baseline with the CROPHE variant it is compared to
// and the parameter set both run (Table III).
type Pairing struct {
	Baseline *arch.HWConfig
	CROPHE   *arch.HWConfig
	Params   arch.ParamSet
}

// CROPHE28 is the 36-bit configuration scaled to 28-bit words for the
// CraterLake comparison (the paper omits its Table I column).
var CROPHE28 = func() *arch.HWConfig {
	c := arch.CROPHE36.Clone()
	c.Name = "CROPHE-28"
	c.WordBits = 28
	return c
}()

// Pairings returns the four baseline comparisons of Figure 9.
func Pairings() []Pairing {
	return []Pairing{
		{Baseline: arch.BTS, CROPHE: arch.CROPHE64, Params: arch.ParamsBTS},
		{Baseline: arch.ARK, CROPHE: arch.CROPHE64, Params: arch.ParamsARK},
		{Baseline: arch.SHARP, CROPHE: arch.CROPHE36, Params: arch.ParamsSHARP},
		{Baseline: arch.CLPlus, CROPHE: CROPHE28, Params: arch.ParamsCL},
	}
}

// Designs returns the four Figure 9 design points for a pairing:
// baseline+MAD, CROPHE-hardware+MAD, CROPHE, CROPHE-p.
func (p Pairing) Designs() []sched.Design {
	return sched.PaperDesigns(p.CROPHE, p.Baseline)
}

// WorkloadFactories returns the paper's four benchmarks under this
// pairing's parameters, keyed by workload name, each as the
// rotation-structure factory the scheduler sweeps.
func (p Pairing) WorkloadFactories() map[string]sched.WorkloadFactory {
	out := make(map[string]sched.WorkloadFactory)
	for _, name := range workload.Names() {
		out[name], _ = workload.Lookup(name, p.Params)
	}
	return out
}

// WorkloadNames lists the benchmarks in the paper's plotting order.
func WorkloadNames() []string { return workload.Names() }
