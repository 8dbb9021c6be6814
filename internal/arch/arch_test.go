package arch

import (
	"math"
	"testing"
)

func TestTable1Configs(t *testing.T) {
	cfgs := Table1()
	if len(cfgs) != 6 {
		t.Fatalf("Table 1 has %d configs, want 6", len(cfgs))
	}
	names := map[string]bool{}
	for _, c := range cfgs {
		if names[c.Name] {
			t.Fatalf("duplicate config %s", c.Name)
		}
		names[c.Name] = true
		if c.DRAMBandwidthTBs != 1 {
			t.Errorf("%s: DRAM bandwidth must be 1 TB/s per Table I", c.Name)
		}
		if c.WordBits <= 0 || c.FreqGHz <= 0 || c.NumPEs <= 0 {
			t.Errorf("%s: invalid basic fields", c.Name)
		}
	}
	// CROPHE variants are homogeneous; baselines are specialised.
	for _, c := range cfgs {
		isCrophe := c.Name == "CROPHE-64" || c.Name == "CROPHE-36"
		if c.Homogeneous != isCrophe {
			t.Errorf("%s: Homogeneous = %v", c.Name, c.Homogeneous)
		}
		if !c.Homogeneous {
			var sum float64
			for _, v := range c.FUShare {
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("%s: FU shares sum to %g", c.Name, sum)
			}
		}
	}
}

func TestWordBytes(t *testing.T) {
	if CROPHE64.WordBytes() != 8 {
		t.Error("64-bit word bytes")
	}
	if CROPHE36.WordBytes() != 4.5 {
		t.Error("36-bit word bytes")
	}
	if CLPlus.WordBytes() != 3.5 {
		t.Error("28-bit word bytes")
	}
}

func TestWithSRAMDoesNotMutate(t *testing.T) {
	orig := CROPHE36.SRAMCapacityMB
	small := CROPHE36.WithSRAM(45)
	if small.SRAMCapacityMB != 45 {
		t.Fatal("WithSRAM capacity")
	}
	if CROPHE36.SRAMCapacityMB != orig {
		t.Fatal("WithSRAM mutated the original")
	}
	if small.Name != CROPHE36.Name || small.NumPEs != CROPHE36.NumPEs {
		t.Fatal("WithSRAM lost fields")
	}
}

func TestCloneDeepCopiesFUShare(t *testing.T) {
	c := SHARP.Clone()
	c.FUShare[ClassEW] = 0.99
	if SHARP.FUShare[ClassEW] == 0.99 {
		t.Fatal("Clone shares FUShare map")
	}
}

func TestTable3ParamSets(t *testing.T) {
	ps := Table3()
	if len(ps) != 4 {
		t.Fatalf("Table 3 rows: %d", len(ps))
	}
	// Exact values from the paper.
	want := map[string][5]int{
		"BTS (INS-2)": {17, 39, 19, 2, 20},
		"ARK":         {16, 23, 15, 4, 6},
		"SHARP":       {16, 35, 27, 3, 12},
		"CraterLake":  {16, 59, 51, 1, 60},
	}
	for _, p := range ps {
		w, ok := want[p.Name]
		if !ok {
			t.Fatalf("unexpected param set %s", p.Name)
		}
		got := [5]int{p.LogN, p.L, p.LBoot, p.DNum, p.Alpha}
		if got != w {
			t.Fatalf("%s: %v want %v", p.Name, got, w)
		}
		// dnum must equal ceil((L+1)/alpha).
		if d := (p.L + p.Alpha) / p.Alpha; d != p.DNum && p.Name != "BTS (INS-2)" {
			// BTS uses alpha=20 with L=39: ceil(40/20)=2 ✓; check all.
			t.Errorf("%s: dnum %d vs ceil((L+1)/alpha) = %d", p.Name, p.DNum, d)
		}
	}
}

func TestParamsFor(t *testing.T) {
	if ParamsFor(BTS).Name != "BTS (INS-2)" {
		t.Error("BTS params")
	}
	if ParamsFor(ARK).LogN != 16 {
		t.Error("ARK params")
	}
	if ParamsFor(SHARP).Alpha != 12 {
		t.Error("SHARP params")
	}
	if ParamsFor(CLPlus).DNum != 1 {
		t.Error("CL+ params")
	}
	// The homogeneous chips take their word width's baseline set.
	if got := ParamsFor(CROPHE64); got != ParamsARK {
		t.Errorf("CROPHE-64 params %s, want ARK", got.Name)
	}
	if got := ParamsFor(CROPHE36); got != ParamsSHARP {
		t.Errorf("CROPHE-36 params %s, want SHARP", got.Name)
	}
	if got := ParamsFor(CROPHE64.WithSRAM(128)); got != ParamsARK {
		t.Errorf("CROPHE-64 at 128 MB params %s, want ARK", got.Name)
	}
}

func TestPEModelReproducesTable2(t *testing.T) {
	pe := PEModel(CROPHE36)
	// Reference values straight from Table II (µm², mW).
	checks := []struct {
		got  Component
		area float64
		pow  float64
	}{
		{pe.Multipliers, 337650.31, 388.80},
		{pe.AddersSubs, 27784.55, 33.79},
		{pe.RegFile, 67242.02, 16.86},
		{pe.InterLane, 15806.76, 58.17},
	}
	for _, c := range checks {
		if math.Abs(c.got.AreaMM2-c.area) > 0.01 {
			t.Errorf("%s area %.2f want %.2f", c.got.Name, c.got.AreaMM2, c.area)
		}
		if math.Abs(c.got.PowerW-c.pow) > 0.01 {
			t.Errorf("%s power %.2f want %.2f", c.got.Name, c.got.PowerW, c.pow)
		}
	}
	if math.Abs(pe.Total().AreaMM2-448483.64) > 1 {
		t.Errorf("PE total area %.2f", pe.Total().AreaMM2)
	}
}

func TestChipModelReproducesTable2(t *testing.T) {
	chip := ChipModel(CROPHE36)
	// Table II chip-level rows (mm², W).
	if math.Abs(chip.PEs.AreaMM2-57.40) > 0.1 {
		t.Errorf("128 PEs area %.2f want 57.40", chip.PEs.AreaMM2)
	}
	if math.Abs(chip.NoC.AreaMM2-40.70) > 0.1 {
		t.Errorf("NoC area %.2f want 40.70", chip.NoC.AreaMM2)
	}
	if math.Abs(chip.GlobalBuf.AreaMM2-116.05) > 0.1 {
		t.Errorf("buffer area %.2f want 116.05", chip.GlobalBuf.AreaMM2)
	}
	if math.Abs(chip.Transpose.AreaMM2-7.38) > 0.1 {
		t.Errorf("transpose area %.2f", chip.Transpose.AreaMM2)
	}
	total := chip.Total()
	if math.Abs(total.AreaMM2-251.13) > 0.5 {
		t.Errorf("total area %.2f want 251.13", total.AreaMM2)
	}
	if math.Abs(total.PowerW-181.11) > 1.5 {
		t.Errorf("total power %.2f want 181.11", total.PowerW)
	}
}

func TestChipModelCROPHE64IsLarger(t *testing.T) {
	// The 64-bit variant must cost more logic per PE (quadratic word
	// scaling) and land in the vicinity of the Table I total (362.8 mm²).
	c64 := ChipModel(CROPHE64)
	c36 := ChipModel(CROPHE36)
	pe64 := PEModel(CROPHE64).Total()
	pe36 := PEModel(CROPHE36).Total()
	if pe64.AreaMM2 <= pe36.AreaMM2 {
		t.Fatal("64-bit PE should be larger than 36-bit PE")
	}
	if c64.Total().AreaMM2 < 250 || c64.Total().AreaMM2 > 480 {
		t.Fatalf("CROPHE-64 total area %.1f out of plausible range", c64.Total().AreaMM2)
	}
	_ = c36
}

func TestPeakThroughput(t *testing.T) {
	if got := CROPHE36.TotalLanes(); got != 128*256 {
		t.Fatalf("lanes %d", got)
	}
	want := float64(128*256) * 1.2e9
	if math.Abs(CROPHE36.PeakModMulsPerSec()-want) > 1 {
		t.Fatal("peak throughput")
	}
}
