package main

import "strings"

// Module attribution of profile samples.
//
// A CPU sample is charged to one module by its call stack (innermost
// frame first):
//
//   - "gc" when any frame is the allocator or the collector: allocation
//     is charged to GC, as is every cycle of background marking and
//     sweeping.
//   - "sim.contention" when any frame is the memory/SMT contention
//     model: a re-arm's cost includes the event-queue and scheduler
//     calls it makes, which is the cost ROADMAP item 3 targets.
//   - otherwise the module of the innermost frame that belongs to this
//     repository, so standard-library helpers (sort, maps, hashing,
//     encoding/json) and the internal/clock stopwatch count toward the
//     repository code that called them. Package repro/internal/<pkg> is
//     module <pkg>, except that package sim splits into sim.window (the
//     shard-window machinery) and sim.loop (the rest of the engine); the
//     benchmark's own code (package main) is "bench".
//   - "http" when no repository frame is on the stack but net/http,
//     net or the poller is: transport goroutines of the loopback server
//     and client.
//   - "other" for everything else (the Go scheduler, idle, syscalls).
//
// An allocation sample is charged by the last two rules: to the code
// that asked for the memory, with sim's parts merged.
const internalPrefix = "repro/internal/"

// benchPrefixes name the benchmark's own functions: package main in the
// binary, its import path in a test binary.
var benchPrefixes = []string{"main.", "repro/lbosbench."}

// contentionFuncs are the contention model's entry points in package
// sim; closures inside them (".funcN") count too.
var contentionFuncs = []string{
	"(*Machine).sharedWith",
	"(*Machine).rearmShared",
	"(*Machine).settleShared",
	"(*Core).effSpeed",
}

// windowFuncs are the shard-window machinery in package sim.
var windowFuncs = []string{
	"(*Machine).tryWindow",
	"(*Machine).runWindow",
	"(*Machine).drainShard",
}

// gcPrefixes name runtime functions that allocate or collect.
var gcPrefixes = []string{
	"runtime.mallocgc",
	"runtime.newobject",
	"runtime.newarray",
	"runtime.makeslice",
	"runtime.growslice",
	"runtime.makemap",
	"runtime.gc",
	"runtime.GC",
	"runtime.markroot",
	"runtime.scanobject",
	"runtime.scanstack",
	"runtime.scanblock",
	"runtime.greyobject",
	"runtime.bgsweep",
	"runtime.bgscavenge",
	"runtime.sweepone",
	"runtime.(*mspan).sweep",
	"runtime.(*mheap)",
	"runtime.(*mcache)",
	"runtime.(*mcentral)",
	"runtime.(*sweepLocked)",
	"runtime.(*gcWork)",
}

// cpuModule returns the module a CPU sample's stack is charged to.
func cpuModule(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.") && hasAnyPrefix(fn, gcPrefixes) {
			return "gc"
		}
	}
	for _, fn := range stack {
		if internalModule(fn) == "sim.contention" {
			return "sim.contention"
		}
	}
	return owner(stack)
}

// allocModule returns the module an allocation sample's stack is
// charged to.
func allocModule(stack []string) string {
	m := owner(stack)
	if strings.HasPrefix(m, "sim.") {
		return "sim"
	}
	return m
}

// site is the allocating function: the innermost repository frame,
// without the "repro/internal/" prefix, else the innermost frame.
func site(stack []string) string {
	for _, fn := range stack {
		if hasAnyPrefix(fn, benchPrefixes) {
			return fn
		}
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok && !strings.HasPrefix(rest, "clock.") {
			return rest
		}
	}
	if len(stack) > 0 {
		return stack[0]
	}
	return "?"
}

// owner is the module of the innermost repository frame, else "http"
// or "other".
func owner(stack []string) string {
	for _, fn := range stack {
		switch {
		case hasAnyPrefix(fn, benchPrefixes):
			return "bench"
		case strings.HasPrefix(fn, internalPrefix+"clock."):
			// the stopwatch is charged to its caller
		case strings.HasPrefix(fn, internalPrefix):
			return internalModule(fn)
		}
	}
	for _, fn := range stack {
		if hasAnyPrefix(fn, []string{"net/http.", "net.", "internal/poll."}) {
			return "http"
		}
	}
	return "other"
}

// internalModule maps a fully qualified function name of an internal
// package, such as "repro/internal/sim.(*Machine).sharedWith.func1",
// to its module ("" for a function outside the internal packages).
func internalModule(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	dot := strings.IndexByte(rest, '.')
	if dot < 0 {
		return "other"
	}
	pkg, name := rest[:dot], rest[dot+1:]
	if pkg != "sim" {
		return pkg
	}
	switch {
	case hasAnyFunc(name, contentionFuncs):
		return "sim.contention"
	case hasAnyFunc(name, windowFuncs):
		return "sim.window"
	}
	return "sim.loop"
}

// hasAnyFunc reports whether name is one of funcs or a closure nested
// in one of them.
func hasAnyFunc(name string, funcs []string) bool {
	for _, f := range funcs {
		if name == f || strings.HasPrefix(name, f+".") {
			return true
		}
	}
	return false
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}
