package workload

import (
	"slices"
	"sync"

	"xbc/internal/program"
)

// microTable is the micro-workload table, built once like paperTable.
var microTable = sync.OnceValue(buildMicro)

// buildMicro constructs the micro workloads.
func buildMicro() []Workload {
	return []Workload{
		{Name: "straightline", Suite: SPECint, Spec: straightlineSpec()},
		{Name: "loopnest", Suite: SPECint, Spec: loopnestSpec()},
		{Name: "callheavy", Suite: SYSmark, Spec: callheavySpec()},
		{Name: "switchheavy", Suite: SYSmark, Spec: switchheavySpec()},
		{Name: "monotone", Suite: Games, Spec: monotoneSpec()},
	}
}

// Micro returns small corner-case workloads that stress one frontend
// mechanism each — useful for unit-style experiments, debugging, and
// teaching. They are not part of the paper's 21-trace evaluation set.
// The result is a fresh copy of the shared table.
func Micro() []Workload { return slices.Clone(microTable()) }

// MicroByName returns the named micro workload.
func MicroByName(name string) (Workload, bool) { return lookup(microTable(), name) }

// straightlineSpec: long blocks, almost no taken control flow — exercises
// quota cuts and the Seq pointer chain.
func straightlineSpec() program.Spec {
	s := program.DefaultSpec("straightline", 9001)
	s.Functions = 24
	s.BlocksPerFunc = [2]int{4, 8}
	s.InstsPerBlock = [2]int{10, 24}
	s.WCond, s.WJump, s.WCall = 0.30, 0.05, 0.10
	s.WIndJump, s.WIndCall, s.WReturn = 0.0, 0.0, 0.55
	s.LoopFrac = 0.2
	s.MonotonicFrac = 0.6
	s.PatternFrac = 0.0
	s.LongLoopFrac = 0
	s.Interleave = 1
	return s
}

// loopnestSpec: small hot loops — exercises promotion and LRU retention.
func loopnestSpec() program.Spec {
	s := program.DefaultSpec("loopnest", 9002)
	s.Functions = 16
	s.BlocksPerFunc = [2]int{6, 12}
	s.InstsPerBlock = [2]int{2, 6}
	s.LoopFrac = 0.8
	s.LoopTrip = [2]int{4, 12}
	s.LongLoopFrac = 0.3
	s.LongLoopTrip = [2]int{128, 512}
	s.WIndJump, s.WIndCall = 0, 0
	s.Interleave = 1
	return s
}

// callheavySpec: deep call/return traffic — exercises the XRSB.
func callheavySpec() program.Spec {
	s := program.DefaultSpec("callheavy", 9003)
	s.Functions = 120
	s.BlocksPerFunc = [2]int{2, 6}
	s.InstsPerBlock = [2]int{1, 4}
	s.WCond, s.WJump, s.WCall = 0.25, 0.05, 0.45
	s.WIndJump, s.WIndCall, s.WReturn = 0.0, 0.05, 0.20
	s.LoopFrac = 0.2
	s.Interleave = 1
	return s
}

// switchheavySpec: dense indirect jumps with many targets — exercises the
// XiBTB and the misfetch path.
func switchheavySpec() program.Spec {
	s := program.DefaultSpec("switchheavy", 9004)
	s.Functions = 40
	s.BlocksPerFunc = [2]int{12, 24}
	s.InstsPerBlock = [2]int{2, 6}
	s.WCond, s.WJump, s.WCall = 0.30, 0.05, 0.10
	s.WIndJump, s.WIndCall, s.WReturn = 0.30, 0.05, 0.20
	s.IndTargets = [2]int{4, 10}
	s.IndSkew = 0.5
	s.Interleave = 1
	return s
}

// monotoneSpec: nearly every branch is >=99% biased — promotion heaven.
func monotoneSpec() program.Spec {
	s := program.DefaultSpec("monotone", 9005)
	s.Functions = 32
	s.MonotonicFrac = 0.9
	s.PatternFrac = 0.0
	s.LoopFrac = 0.2
	s.LongLoopFrac = 0.5
	s.LongLoopTrip = [2]int{200, 600}
	s.BiasSpread = 1.0
	s.Interleave = 1
	return s
}
