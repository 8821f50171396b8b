package codec

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/evolving-olap/idd/internal/datasets"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/randgen"
)

// relabel returns a deep copy of the instance with index positions
// permuted by iperm (iperm[i] = new position of index i), query positions
// permuted by qperm, every integer reference remapped, and the record
// slices themselves shuffled by rng — i.e. the same problem written down
// completely differently.
func relabel(in *model.Instance, iperm, qperm []int, rng *rand.Rand) *model.Instance {
	out := &model.Instance{
		Name:    in.Name,
		Indexes: make([]model.Index, len(in.Indexes)),
		Queries: make([]model.Query, len(in.Queries)),
	}
	for i, ix := range in.Indexes {
		ix.Columns = append([]string(nil), ix.Columns...)
		ix.Include = append([]string(nil), ix.Include...)
		out.Indexes[iperm[i]] = ix
	}
	for q, qu := range in.Queries {
		out.Queries[qperm[q]] = qu
	}
	for _, p := range in.Plans {
		idx := make([]int, len(p.Indexes))
		for k, i := range p.Indexes {
			idx[k] = iperm[i]
		}
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		out.Plans = append(out.Plans, model.Plan{Query: qperm[p.Query], Indexes: idx, Speedup: p.Speedup})
	}
	for _, b := range in.BuildInteractions {
		out.BuildInteractions = append(out.BuildInteractions, model.BuildInteraction{
			Target: iperm[b.Target], Helper: iperm[b.Helper], Speedup: b.Speedup,
		})
	}
	for _, pr := range in.Precedences {
		out.Precedences = append(out.Precedences, model.Precedence{
			Before: iperm[pr.Before], After: iperm[pr.After],
		})
	}
	rng.Shuffle(len(out.Plans), func(a, b int) { out.Plans[a], out.Plans[b] = out.Plans[b], out.Plans[a] })
	rng.Shuffle(len(out.BuildInteractions), func(a, b int) {
		out.BuildInteractions[a], out.BuildInteractions[b] = out.BuildInteractions[b], out.BuildInteractions[a]
	})
	rng.Shuffle(len(out.Precedences), func(a, b int) {
		out.Precedences[a], out.Precedences[b] = out.Precedences[b], out.Precedences[a]
	})
	return out
}

// TestCanonicalHashRelabelInvariant is the property test: the canonical
// hash does not change under index/query relabeling and record
// reordering, and the returned permutations compose correctly.
func TestCanonicalHashRelabelInvariant(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 7))
		cfg := randgen.DefaultConfig()
		cfg.Indexes = 4 + rng.Intn(12)
		cfg.Queries = 3 + rng.Intn(8)
		in := randgen.New(rng, cfg)
		if err := in.Validate(); err != nil {
			t.Fatalf("trial %d: generator made an invalid instance: %v", trial, err)
		}
		want := CanonicalHash(in)
		canon, perm := Canonicalize(in)
		if err := canon.Validate(); err != nil {
			t.Fatalf("trial %d: canonical form invalid: %v", trial, err)
		}

		iperm := rng.Perm(len(in.Indexes))
		qperm := rng.Perm(len(in.Queries))
		shuffled := relabel(in, iperm, qperm, rng)
		if err := shuffled.Validate(); err != nil {
			t.Fatalf("trial %d: relabel broke validity: %v", trial, err)
		}
		if got := CanonicalHash(shuffled); got != want {
			t.Fatalf("trial %d: hash changed under relabeling: %s vs %s", trial, got, want)
		}

		// Both writings canonicalize to the same instance, and the two
		// permutations agree on where every original index landed.
		canon2, perm2 := Canonicalize(shuffled)
		if !reflect.DeepEqual(canon, canon2) {
			t.Fatalf("trial %d: canonical forms differ", trial)
		}
		for i := range perm {
			if perm[i] != perm2[iperm[i]] {
				t.Fatalf("trial %d: perm mismatch for index %d: %d vs %d",
					trial, i, perm[i], perm2[iperm[i]])
			}
		}
	}
}

func TestCanonicalizeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	in := randgen.New(rng, randgen.DefaultConfig())
	canon, _ := Canonicalize(in)
	again, perm := Canonicalize(canon)
	if !reflect.DeepEqual(canon, again) {
		t.Fatal("canonicalization is not idempotent")
	}
	for i, c := range perm {
		if i != c {
			t.Fatalf("canonical instance re-permuted: perm[%d]=%d", i, c)
		}
	}
	if CanonicalHash(in) != CanonicalHash(canon) {
		t.Fatal("hash of canonical form differs from hash of original")
	}
}

func TestCanonicalHashSensitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := randgen.New(rng, randgen.DefaultConfig())
	base := CanonicalHash(in)

	mutants := map[string]func(*model.Instance){
		"cost":      func(m *model.Instance) { m.Indexes[0].CreateCost *= 1.5 },
		"rename":    func(m *model.Instance) { m.Indexes[0].Name += "_x" },
		"runtime":   func(m *model.Instance) { m.Queries[0].Runtime += 1 },
		"speedup":   func(m *model.Instance) { m.Plans[0].Speedup *= 0.5 },
		"drop-plan": func(m *model.Instance) { m.Plans = m.Plans[1:] },
		"add-prec":  func(m *model.Instance) { m.Precedences = append(m.Precedences, model.Precedence{Before: 0, After: 1}) },
	}
	for name, mutate := range mutants {
		cp := relabel(in, identity(len(in.Indexes)), identity(len(in.Queries)), rand.New(rand.NewSource(1)))
		mutate(cp)
		if err := cp.Validate(); err != nil {
			t.Fatalf("%s: mutant invalid: %v", name, err)
		}
		if CanonicalHash(cp) == base {
			t.Errorf("%s: hash did not change", name)
		}
	}

	// The instance-level name is metadata, not part of the problem.
	cp := relabel(in, identity(len(in.Indexes)), identity(len(in.Queries)), rand.New(rand.NewSource(1)))
	cp.Name = "renamed"
	if CanonicalHash(cp) != base {
		t.Error("instance name changed the hash")
	}
}

func identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// TestStructuralHash pins the delta-aware cache key contract: parameter
// drift (weights, runtimes, costs, speedups) keeps the structural hash
// stable, relabeling keeps it stable, and structural edits (rename,
// add/drop an index, new precedence) change it.
func TestStructuralHash(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := randgen.New(rng, randgen.DefaultConfig())
	base := StructuralHash(in)
	if base == StructuralHash(&model.Instance{}) {
		t.Fatal("structural hash ignores the instance entirely")
	}

	// Parameter-only drift: same structure.
	drifts := map[string]func(*model.Instance){
		"weight":  func(m *model.Instance) { m.Queries[0].Weight = 7 },
		"runtime": func(m *model.Instance) { m.Queries[0].Runtime *= 2 },
		"cost":    func(m *model.Instance) { m.Indexes[0].CreateCost *= 3 },
		"speedup": func(m *model.Instance) { m.Plans[0].Speedup *= 0.5 },
	}
	for name, mutate := range drifts {
		cp := relabel(in, identity(len(in.Indexes)), identity(len(in.Queries)), rand.New(rand.NewSource(1)))
		mutate(cp)
		if err := cp.Validate(); err != nil {
			t.Fatalf("%s: mutant invalid: %v", name, err)
		}
		if StructuralHash(cp) != base {
			t.Errorf("%s: parameter drift changed the structural hash", name)
		}
		if CanonicalHash(cp) == CanonicalHash(in) {
			t.Errorf("%s: canonical hash missed the parameter change", name)
		}
	}

	// Relabeling/reordering: same structure.
	iperm := rng.Perm(len(in.Indexes))
	qperm := rng.Perm(len(in.Queries))
	if got := StructuralHash(relabel(in, iperm, qperm, rng)); got != base {
		t.Error("structural hash changed under relabeling")
	}

	// Structural edits: different hash.
	edits := map[string]func(*model.Instance){
		"rename":    func(m *model.Instance) { m.Indexes[0].Name += "_x" },
		"drop-plan": func(m *model.Instance) { m.Plans = m.Plans[1:] },
		"add-prec":  func(m *model.Instance) { m.Precedences = append(m.Precedences, model.Precedence{Before: 0, After: 1}) },
	}
	for name, mutate := range edits {
		cp := relabel(in, identity(len(in.Indexes)), identity(len(in.Queries)), rand.New(rand.NewSource(1)))
		mutate(cp)
		if err := cp.Validate(); err != nil {
			t.Fatalf("%s: mutant invalid: %v", name, err)
		}
		if StructuralHash(cp) == base {
			t.Errorf("%s: structural edit kept the structural hash", name)
		}
	}
}

// TestHashCanonicalSinglePass is the property test for the service's
// one-canonicalization path: hashing the canonical form a caller
// already holds equals CanonicalHash of the original and of every
// relabelled, reordered writing of it.
func TestHashCanonicalSinglePass(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 101))
		cfg := randgen.DefaultConfig()
		cfg.Indexes = 4 + rng.Intn(12)
		cfg.Queries = 3 + rng.Intn(8)
		in := randgen.New(rng, cfg)
		want := CanonicalHash(in)
		shuffled := relabel(in, rng.Perm(len(in.Indexes)), rng.Perm(len(in.Queries)), rng)
		for _, src := range []*model.Instance{in, shuffled} {
			canon, _ := Canonicalize(src)
			if got := HashCanonical(canon); got != want {
				t.Fatalf("trial %d: single-pass hash %s, CanonicalHash %s", trial, got, want)
			}
			if StructuralHash(canon) != StructuralHash(src) {
				t.Fatalf("trial %d: structural hash differs between the canonical and original writing", trial)
			}
		}
	}
}

// TestHashesPinned pins both hashes of the reference datasets: cache
// keys and cluster ring owners are these strings, so nodes running
// different builds must compute them byte for byte alike.
func TestHashesPinned(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		in                    *model.Instance
		canonical, structural string
	}{
		{"tpch", datasets.TPCH(),
			"1a9f2768b79300ed0c0224eb71514a4f85533e7492c38fbb183b43e456784727",
			"24a704b96fbad08496b65d1e60a88c06b9a44d66cc2de90fafbd79bba8372779"},
		{"tpcds", datasets.TPCDS(),
			"9bdb42e74f4b5178a9f6535516053305d59466c2bee40f971734af95094c9583",
			"ed66f62418fb259ccfded4deaecdcc7a399a22fc30a99f3d87541346fd1893f8"},
		{"tpch-r12-mid", datasets.ReducedTPCH(12, datasets.Mid),
			"7fd680e68e6852ab437159a52811e82b8ee876530348c6623c9fef9bb7b5e5c3",
			"4a80ae9dd852e46fba830f91c04c45dc90e3f350defe6472ccda38c5f6f26b32"},
	} {
		canon, _ := Canonicalize(tc.in)
		if got := HashCanonical(canon); got != tc.canonical {
			t.Errorf("%s: canonical hash %s, pinned %s", tc.name, got, tc.canonical)
		}
		if got := StructuralHash(canon); got != tc.structural {
			t.Errorf("%s: structural hash %s, pinned %s", tc.name, got, tc.structural)
		}
	}
}
