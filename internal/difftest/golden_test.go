package difftest

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/cfs"
	"repro/internal/cpuset"
	"repro/internal/linuxlb"
	"repro/internal/sim"
	"repro/internal/speedbal"
	"repro/internal/spmd"
	"repro/internal/topo"
)

// Golden fingerprints of the contention-heavy runs below: the SHA-256 of
// Fingerprint after each run. Unlike the engine matrix, which compares
// engine configurations within one build, these constants pin behaviour
// across commits: a change to the contention model that moves one ulp
// of retired work, one event or one tie-break changes a digest. A
// deliberate behaviour change regenerates them (run the test, copy the
// reported digests) and says why in CHANGES.md.
const (
	goldenFabric  = "ac695255ceea1ea532d68ae6825a352cd7d0b7fc834c7d68e4ebb62eb3578af0"
	goldenNehalem = "de6a3cdf84ed58f4b26daad8ecf2914811eaf2d787bf2719773a9d3a3d9cd3b9"
)

// goldenFabricRun is a 256-core cut of the fab1k bench machine: four
// sockets of 64 cores, each running one pinned 64-thread UPC-sleep app
// (MemIntensity 0.4, so every domain is saturated 3.2× over capacity)
// under a per-socket Linux balancer, for 20 ms of simulated time.
func goldenFabricRun(shards int, parallel bool) *sim.Machine {
	const sockets = 4
	tp := topo.Fabric(sockets, 64)
	m := sim.New(tp, sim.Config{Seed: 12, NewScheduler: cfs.Factory(),
		Shards: shards, ShardParallel: parallel})
	perSocket := make([]cpuset.Set, sockets)
	for _, ci := range tp.Cores {
		perSocket[ci.Socket] = perSocket[ci.Socket].Add(ci.ID)
	}
	for s, set := range perSocket {
		lcfg := linuxlb.DefaultConfig()
		lcfg.Domain = set
		m.AddActor(linuxlb.New(lcfg))
		spmd.Build(m, spmd.Spec{
			Name:             fmt.Sprintf("sock%d", s),
			Threads:          set.Count(),
			Iterations:       1 << 30,
			WorkPerIteration: float64(300 * time.Microsecond),
			WorkJitter:       0.3,
			MemIntensity:     0.4,
			RSSBytes:         1 << 20,
			Model:            spmd.UPCSleep(),
			Affinity:         set,
		}).StartPinned()
	}
	m.RunFor(20 * time.Millisecond)
	return m
}

// goldenNehalemRun oversubscribes the SMT Nehalem with a memory-bound
// yielding app under the speed balancer and a lightly memory-bound
// spinning app placed by the Linux balancer. SMT siblings share a
// memory domain, so every occupancy change re-arms both the sibling
// (SMT factor) and the socket's other contexts (bandwidth factor), and
// speed-balancing migrations move demand between the two domains.
func goldenNehalemRun() *sim.Machine {
	m := sim.New(topo.Nehalem(), sim.Config{Seed: 7, NewScheduler: cfs.Factory()})
	m.AddActor(linuxlb.New(linuxlb.DefaultConfig()))
	speedbal.Default().Launch(m, spmd.Build(m, spmd.Spec{
		Name: "mem", Threads: 19, Iterations: 40,
		WorkPerIteration: float64(time.Millisecond), WorkJitter: 0.3,
		MemIntensity: 0.9, RSSBytes: 4 << 20, Model: spmd.UPC(),
	}))
	spmd.Build(m, spmd.Spec{
		Name: "cpu", Threads: 5, Iterations: 40,
		WorkPerIteration: float64(time.Millisecond), WorkJitter: 0.3,
		MemIntensity: 0.2, RSSBytes: 1 << 20, Model: spmd.OpenMPInfinite(),
	}).Start()
	m.Run(int64(5 * time.Second))
	return m
}

func goldenDigest(m *sim.Machine) string {
	sum := sha256.Sum256([]byte(Fingerprint(m)))
	return hex.EncodeToString(sum[:])
}

// TestContentionGolden pins the end state of the memory-bandwidth and
// SMT contention paths across commits. Only amd64 is pinned: other
// architectures may fuse multiply-adds in effSpeed and move ulps.
func TestContentionGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	cases := []struct {
		name string
		run  func() *sim.Machine
		want string
	}{
		{"fabric4x64/shards=1", func() *sim.Machine { return goldenFabricRun(1, false) }, goldenFabric},
		{"fabric4x64/shards=4/windows", func() *sim.Machine { return goldenFabricRun(4, true) }, goldenFabric},
		{"nehalem", goldenNehalemRun, goldenNehalem},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.run()
			if got := goldenDigest(m); got != tc.want {
				t.Errorf("digest %s, want %s (behaviour moved; see the golden constants' doc)", got, tc.want)
			}
		})
	}
}
