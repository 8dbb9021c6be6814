// Package arch defines the hardware configurations of the paper's
// evaluation — the two CROPHE variants and the baseline accelerators of
// Table I, the CKKS parameter sets of Table III — and an analytical
// area/power model reproducing the Table II breakdown. The RTL/FN-CACTI/
// Orion toolchain of the paper is replaced by per-component coefficients
// calibrated to the published numbers (see DESIGN.md, substitutions).
package arch

import "fmt"

// OpClass buckets operators by the functional-unit type that executes
// them on the *specialised* baseline accelerators. CROPHE's homogeneous
// PEs execute every class.
type OpClass int

// Functional-unit classes of the baseline accelerators.
const (
	ClassEW OpClass = iota // element-wise modular add/mul units
	ClassNTT
	ClassBConv
	ClassAutomorph
	NumOpClasses
)

// String implements fmt.Stringer.
func (c OpClass) String() string {
	switch c {
	case ClassEW:
		return "ew"
	case ClassNTT:
		return "ntt"
	case ClassBConv:
		return "bconv"
	case ClassAutomorph:
		return "automorph"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// HWConfig is one row of Table I plus the microarchitectural detail the
// mapper and simulator need.
type HWConfig struct {
	Name     string
	WordBits int
	FreqGHz  float64

	Lanes  int // modular-arithmetic lanes per PE
	NumPEs int // PEs (or clusters for the baselines)

	DRAMBandwidthTBs float64
	SRAMBandwidthTBs float64 // global buffer bandwidth
	LocalBWTBs       float64 // local buffer / register-file bandwidth (Table I second term)
	SRAMCapacityMB   float64 // global buffer capacity
	RegFileKBPerPE   float64

	// Homogeneous is true for CROPHE: any PE runs any operator class.
	// When false, FUShare gives the fraction of total lane throughput
	// dedicated to each class (idle when that class is absent).
	Homogeneous bool
	FUShare     map[OpClass]float64

	// Mesh dimensions for the NoC model (Homogeneous designs).
	MeshW, MeshH int
	// NoCLinkGBs is the per-link bandwidth of the mesh.
	NoCLinkGBs float64
	// TransposeUnit capacity in MB (0 = none; baselines fold transposes
	// into their NTT units).
	TransposeMB float64
}

// WordBytes returns the datapath word size in bytes (fractional for
// non-power-of-two word widths, e.g. 4.5 for 36 bits).
func (c *HWConfig) WordBytes() float64 { return float64(c.WordBits) / 8 }

// TotalLanes returns NumPEs × Lanes.
func (c *HWConfig) TotalLanes() int { return c.NumPEs * c.Lanes }

// PeakModMulsPerSec returns the peak modular multiplications per second.
func (c *HWConfig) PeakModMulsPerSec() float64 {
	return float64(c.TotalLanes()) * c.FreqGHz * 1e9
}

// SimMesh returns the PE mesh the simulator and the fault model lay the
// chip out on: MeshW×MeshH, or for meshless baselines one row of NumPEs
// clusters, at most 64 wide, modeled with wide links.
func (c *HWConfig) SimMesh() (w, h int) {
	if c.MeshW >= 1 && c.MeshH >= 1 {
		return c.MeshW, c.MeshH
	}
	return min(c.NumPEs, 64), 1
}

// WithSRAM returns a copy with a different global SRAM capacity — the
// sweep knob of Figure 10.
func (c *HWConfig) WithSRAM(capacityMB float64) *HWConfig {
	out := *c
	out.SRAMCapacityMB = capacityMB
	return &out
}

// Derating is the effective-resource view of a configuration under a
// fault plan: each field is the surviving fraction of the corresponding
// resource (1 = healthy, 0 = fully failed). internal/fault computes one
// from a seeded fault plan; the scheduler then searches on the derated
// configuration so degraded-mode schedules fall out of the same cost
// model as healthy ones.
type Derating struct {
	PEs  float64 // surviving PE fraction (failed rows)
	Lane float64 // surviving per-PE lane throughput (degraded lanes)
	NoC  float64 // surviving aggregate mesh link capacity
	SRAM float64 // surviving global-buffer banks (bandwidth and capacity)
	DRAM float64 // surviving HBM bandwidth (throttled channels)
}

// Healthy is the identity derating.
func Healthy() Derating { return Derating{PEs: 1, Lane: 1, NoC: 1, SRAM: 1, DRAM: 1} }

// Derate returns a copy of the configuration scaled by the surviving
// resource fractions — the machine the scheduler and the analytical cost
// model see under a fault plan. Fractions are clamped to [0, 1]; integer
// resources floor but keep at least one unit whenever the fraction is
// positive, so a plan that leaves any resource alive yields a schedulable
// (if slow) machine and a plan that kills a resource class yields a
// configuration the scheduler rejects as infeasible.
func (c *HWConfig) Derate(d Derating) *HWConfig {
	out := c.Clone()
	frac := func(f float64) float64 {
		if f < 0 {
			return 0
		}
		if f > 1 {
			return 1
		}
		return f
	}
	scaleInt := func(n int, f float64) int {
		f = frac(f)
		m := int(float64(n) * f)
		if m < 1 && f > 0 && n > 0 {
			m = 1
		}
		return m
	}
	out.NumPEs = scaleInt(c.NumPEs, d.PEs)
	out.Lanes = scaleInt(c.Lanes, d.Lane)
	out.NoCLinkGBs = c.NoCLinkGBs * frac(d.NoC)
	out.SRAMBandwidthTBs = c.SRAMBandwidthTBs * frac(d.SRAM)
	out.SRAMCapacityMB = c.SRAMCapacityMB * frac(d.SRAM)
	out.DRAMBandwidthTBs = c.DRAMBandwidthTBs * frac(d.DRAM)
	return out
}

// Clone returns a deep copy.
func (c *HWConfig) Clone() *HWConfig {
	out := *c
	if c.FUShare != nil {
		out.FUShare = make(map[OpClass]float64, len(c.FUShare))
		for k, v := range c.FUShare {
			out.FUShare[k] = v
		}
	}
	return &out
}

// The configurations of Table I. The baseline FU shares follow the
// published unit mixes: roughly half the datapath in NTT butterflies, the
// rest split across element-wise, BConv and automorphism units.
var (
	// CROPHE64 is the 64-bit CROPHE variant compared against BTS and ARK.
	CROPHE64 = &HWConfig{
		Name: "CROPHE-64", WordBits: 64, FreqGHz: 1.2,
		Lanes: 256, NumPEs: 64,
		DRAMBandwidthTBs: 1, SRAMBandwidthTBs: 39, LocalBWTBs: 314, SRAMCapacityMB: 512,
		RegFileKBPerPE: 64, Homogeneous: true,
		MeshW: 8, MeshH: 8, NoCLinkGBs: 2400, TransposeMB: 16,
	}

	// CROPHE36 is the 36-bit variant compared against SHARP and CL+.
	CROPHE36 = &HWConfig{
		Name: "CROPHE-36", WordBits: 36, FreqGHz: 1.2,
		Lanes: 256, NumPEs: 128,
		DRAMBandwidthTBs: 1, SRAMBandwidthTBs: 44, LocalBWTBs: 354, SRAMCapacityMB: 180,
		RegFileKBPerPE: 64, Homogeneous: true,
		MeshW: 16, MeshH: 8, NoCLinkGBs: 2400, TransposeMB: 8,
	}

	// BTS configuration [35].
	BTS = &HWConfig{
		Name: "BTS", WordBits: 64, FreqGHz: 1.2,
		Lanes: 1, NumPEs: 2048 * 8, // 2048 PEs, modeled as flat lanes
		DRAMBandwidthTBs: 1, SRAMBandwidthTBs: 38.4, LocalBWTBs: 292, SRAMCapacityMB: 512,
		RegFileKBPerPE: 4, Homogeneous: false,
		FUShare: map[OpClass]float64{ClassNTT: 0.50, ClassEW: 0.25, ClassBConv: 0.15, ClassAutomorph: 0.10},
	}

	// ARK configuration [34].
	ARK = &HWConfig{
		Name: "ARK", WordBits: 64, FreqGHz: 1.0,
		Lanes: 256, NumPEs: 4 * 16, // 4 clusters, modeled with 16 sub-units each
		DRAMBandwidthTBs: 1, SRAMBandwidthTBs: 20, LocalBWTBs: 72, SRAMCapacityMB: 512,
		RegFileKBPerPE: 64, Homogeneous: false,
		FUShare: map[OpClass]float64{ClassNTT: 0.45, ClassEW: 0.25, ClassBConv: 0.20, ClassAutomorph: 0.10},
	}

	// SHARP configuration [33].
	SHARP = &HWConfig{
		Name: "SHARP", WordBits: 36, FreqGHz: 1.0,
		Lanes: 256, NumPEs: 4 * 64, // 4 clusters; lanes carry multiple FUs
		DRAMBandwidthTBs: 1, SRAMBandwidthTBs: 36, LocalBWTBs: 36, SRAMCapacityMB: 180,
		RegFileKBPerPE: 64, Homogeneous: false,
		FUShare: map[OpClass]float64{ClassNTT: 0.45, ClassEW: 0.30, ClassBConv: 0.15, ClassAutomorph: 0.10},
	}

	// CLPlus is CraterLake scaled to 7 nm (CL+ in the paper).
	CLPlus = &HWConfig{
		Name: "CL+", WordBits: 28, FreqGHz: 1.0,
		Lanes: 512, NumPEs: 8 * 16,
		DRAMBandwidthTBs: 1, SRAMBandwidthTBs: 84, LocalBWTBs: 84, SRAMCapacityMB: 256,
		RegFileKBPerPE: 32, Homogeneous: false,
		FUShare: map[OpClass]float64{ClassNTT: 0.50, ClassEW: 0.25, ClassBConv: 0.15, ClassAutomorph: 0.10},
	}
)

// Table1 lists the compared configurations in the paper's column order.
func Table1() []*HWConfig {
	return []*HWConfig{BTS, ARK, CROPHE64, CLPlus, SHARP, CROPHE36}
}

// ParamSet is one row of Table III: the CKKS parameters used when
// comparing against each baseline. All achieve 128-bit security.
type ParamSet struct {
	Name  string
	LogN  int
	L     int // maximum multiplicative level
	LBoot int // levels consumed by bootstrapping
	DNum  int
	Alpha int
}

// N returns the ring degree.
func (p ParamSet) N() int { return 1 << p.LogN }

// Limbs returns L+1.
func (p ParamSet) Limbs() int { return p.L + 1 }

// Table III parameter sets.
var (
	ParamsBTS   = ParamSet{Name: "BTS (INS-2)", LogN: 17, L: 39, LBoot: 19, DNum: 2, Alpha: 20}
	ParamsARK   = ParamSet{Name: "ARK", LogN: 16, L: 23, LBoot: 15, DNum: 4, Alpha: 6}
	ParamsSHARP = ParamSet{Name: "SHARP", LogN: 16, L: 35, LBoot: 27, DNum: 3, Alpha: 12}
	ParamsCL    = ParamSet{Name: "CraterLake", LogN: 16, L: 59, LBoot: 51, DNum: 1, Alpha: 60}
)

// Table3 lists the parameter sets in the paper's row order.
func Table3() []ParamSet {
	return []ParamSet{ParamsBTS, ParamsARK, ParamsSHARP, ParamsCL}
}

// ParamsFor returns the parameter set a configuration evaluates under:
// a baseline runs its own Table III set, and a homogeneous CROPHE chip
// runs the set of the baselines it is compared with at its word width —
// ARK's on a 64-bit chip, SHARP's otherwise.
func ParamsFor(hw *HWConfig) ParamSet {
	if hw.Homogeneous {
		if hw.WordBits == 64 {
			return ParamsARK
		}
		return ParamsSHARP
	}
	switch hw.Name {
	case "BTS":
		return ParamsBTS
	case "ARK":
		return ParamsARK
	case "SHARP":
		return ParamsSHARP
	case "CL+":
		return ParamsCL
	}
	return ParamsSHARP
}

// hwNames is the one table of hardware names the CLIs and the serving
// layer accept.
var hwNames = map[string]*HWConfig{
	"crophe64": CROPHE64, "crophe36": CROPHE36,
	"bts": BTS, "ark": ARK, "sharp": SHARP, "cl": CLPlus, "cl+": CLPlus,
}

// Lookup maps a hardware name (crophe64, crophe36, bts, ark, sharp, cl
// or cl+) to its Table I configuration.
func Lookup(name string) (*HWConfig, bool) {
	hw, ok := hwNames[name]
	return hw, ok
}
