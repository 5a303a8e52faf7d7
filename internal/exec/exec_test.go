package exec

import (
	"testing"

	"aamgo/internal/vtime"
)

func TestProfileByName(t *testing.T) {
	for name, want := range map[string]string{
		"has-c": "has-c", "haswell": "has-c", "has": "has-c",
		"has-p": "has-p", "greina": "has-p",
		"bgq": "bgq", "vesta": "bgq",
	} {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name != want {
			t.Fatalf("%s resolved to %s, want %s", name, p.Name, want)
		}
	}
	if _, err := ProfileByName("summit"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestHTMVariantLookup(t *testing.T) {
	bgq := BGQ()
	if bgq.HTMVariant("").Name != "short" {
		t.Fatal("BG/Q default variant must be the short mode")
	}
	if bgq.HTMVariant("long").Name != "long" {
		t.Fatal("long mode lookup failed")
	}
	has := HaswellC()
	if has.HTMVariant("rtm").Name != "rtm" || has.HTMVariant("hle").Name != "hle" {
		t.Fatal("haswell variant lookup failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown HTM variant must panic")
		}
	}()
	has.HTMVariant("rock")
}

func TestProfilesEncodeArchitecture(t *testing.T) {
	has, bgq, hasp := HaswellC(), BGQ(), HaswellP()

	// The paper's architectural contrasts must be encoded in the
	// profiles: BG/Q LL/SC CAS fails shared, x86 does not.
	if !bgq.CASFailsShared || has.CASFailsShared || hasp.CASFailsShared {
		t.Fatal("CASFailsShared wrong: BG/Q is LL/SC, Haswell is lock cmpxchg")
	}
	// BG/Q HTM lives in the shared L2 (arbitration); Haswell in per-core
	// L1 (no arbitration, line-granular conflicts, lock subscription).
	if bgq.LineConflicts {
		t.Fatal("BG/Q: L2 versioning resolves conflicts finer than lines")
	}
	for _, v := range bgq.HTM {
		if v.ArbCost == 0 {
			t.Fatalf("BG/Q %s: no L2 arbitration cost", v.Name)
		}
	}
	for _, prof := range []MachineProfile{has, hasp} {
		if !prof.LineConflicts {
			t.Fatalf("%s: TSX is line-granular", prof.Name)
		}
		for _, v := range prof.HTM {
			if v.ArbCost != 0 {
				t.Fatalf("%s/%s: per-core HTM must not arbitrate", prof.Name, v.Name)
			}
			if !v.LockSubscription {
				t.Fatalf("%s/%s: TSX has a subscribed fallback lock", prof.Name, v.Name)
			}
		}
	}
	// SMT structure.
	if has.MaxThreads != 2*has.Cores || hasp.MaxThreads != 2*hasp.Cores || bgq.MaxThreads != 4*bgq.Cores {
		t.Fatal("SMT width wrong")
	}
	// The single-op cost ordering behind Fig. 2: transactions cost more
	// to start than an atomic, but each access is cheaper.
	for _, prof := range []MachineProfile{has, bgq, hasp} {
		for _, v := range prof.HTM {
			if v.BeginCost+v.CommitCost <= prof.CASCost {
				t.Fatalf("%s/%s: B_HTM must exceed B_AT", prof.Name, v.Name)
			}
			if v.PerAccessCost >= prof.CASCost {
				t.Fatalf("%s/%s: A_HTM must be below A_AT", prof.Name, v.Name)
			}
		}
	}
}

func TestConfigValidateDefaults(t *testing.T) {
	var c Config
	c.Validate()
	if c.Nodes != 1 || c.ThreadsPerNode != 1 || c.MemWords <= 0 || c.Profile == nil {
		t.Fatalf("defaults not filled: %+v", c)
	}
}

func TestHTMPolicyFlagsDiffer(t *testing.T) {
	has := HaswellC()
	rtm, hle := has.HTMVariant("rtm"), has.HTMVariant("hle")
	if !rtm.SoftwareBackoff || rtm.SerializeAfterFirst {
		t.Fatal("RTM policy flags wrong")
	}
	if hle.SerializeAfterFirst != true || hle.MaxRetries != 1 {
		t.Fatal("HLE must serialize after the first abort")
	}
	bgq := BGQ()
	short := bgq.HTMVariant("short")
	if short.SoftwareBackoff || short.SerializeAfterFirst || short.MaxRetries != 10 {
		t.Fatal("BG/Q policy must be hardware auto-retry with the default rollback limit")
	}
}

func TestVirtualTimeCalibrationAnchors(t *testing.T) {
	// DESIGN.md §5 anchors (ratios drive the reproduction; absolute
	// values anchor the scale).
	has := HaswellC()
	if has.CASCost != 15*vtime.Nanosecond {
		t.Fatalf("Haswell CAS = %v", has.CASCost)
	}
	bgq := BGQ()
	if bgq.CASCost < 50*vtime.Nanosecond || bgq.CASCost > 200*vtime.Nanosecond {
		t.Fatalf("BG/Q CAS %v out of the calibrated band", bgq.CASCost)
	}
	if bgq.NetAlpha < has.NetAlpha/2 || bgq.NetAlpha > 2*has.NetAlpha {
		t.Fatalf("network alphas should be same order: %v vs %v", bgq.NetAlpha, has.NetAlpha)
	}
}
