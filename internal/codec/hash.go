// Canonical instance normalization and hashing. Two requests for the
// same deployment-ordering problem rarely arrive byte-identical: what-if
// pipelines emit indexes, queries, plans and precedences in whatever
// order they were discovered, and integer references shift with every
// reordering. The solve service deduplicates such requests through a
// canonical form — a relabeling- and reordering-independent normalization
// of the instance — and caches solutions under its SHA-256 hash.
package codec

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sort"
	"strconv"
	"strings"

	"github.com/evolving-olap/idd/internal/model"
)

// Canonicalize returns a canonical copy of the instance plus the index
// permutation that produced it: perm[i] is the canonical position of the
// instance's index i. Two instances that differ only in the order of
// their index / query / plan / interaction / precedence slices (with
// integer references relabeled accordingly) canonicalize to the same
// instance, and canonicalization is idempotent. The instance-level Name
// is dropped — it does not change the problem. The input must be valid
// (see Instance.Validate) and is not mutated.
//
// Canonical layout: indexes sorted by (name, cost, table, columns,
// include); queries sorted by (name, runtime, weight, plan signature);
// plans, build interactions and precedences relabeled through those
// orders and sorted lexicographically. Index names are unique in a valid
// instance, so the index order is total; fully identical duplicate
// queries are interchangeable and tie-broken arbitrarily without
// affecting the canonical form.
func Canonicalize(in *model.Instance) (*model.Instance, []int) {
	n := len(in.Indexes)
	byIdx := make([]int, n) // canonical position -> original index
	for i := range byIdx {
		byIdx[i] = i
	}
	// Every sort key is built once, not inside the comparators.
	idxKeys := make([]string, n)
	for i := range in.Indexes {
		ix := &in.Indexes[i]
		idxKeys[i] = ix.Name + "\x00" + fstr(ix.CreateCost) + "\x00" + ix.Table +
			"\x00" + strings.Join(ix.Columns, "\x01") + "\x00" + strings.Join(ix.Include, "\x01")
	}
	sort.Slice(byIdx, func(a, b int) bool { return idxKeys[byIdx[a]] < idxKeys[byIdx[b]] })
	perm := make([]int, n) // original index -> canonical position
	for c, i := range byIdx {
		perm[i] = c
	}

	// Plan signatures in canonical index space, grouped per query, feed
	// the query sort key so that even same-named queries order stably.
	planIdx := make([][]int, len(in.Plans))
	planSigsOfQuery := make([][]string, len(in.Queries))
	var sig []byte
	for pi, p := range in.Plans {
		idx := make([]int, len(p.Indexes))
		for k, i := range p.Indexes {
			idx[k] = perm[i]
		}
		sort.Ints(idx)
		planIdx[pi] = idx
		sig = strconv.AppendFloat(sig[:0], p.Speedup, 'g', -1, 64)
		sig = append(sig, '@')
		for k, c := range idx {
			if k > 0 {
				sig = append(sig, ',')
			}
			sig = strconv.AppendInt(sig, int64(c), 10)
		}
		planSigsOfQuery[p.Query] = append(planSigsOfQuery[p.Query], string(sig))
	}
	byQ := make([]int, len(in.Queries))
	for q := range byQ {
		byQ[q] = q
	}
	qKeys := make([]string, len(in.Queries))
	for q := range qKeys {
		sigs := planSigsOfQuery[q]
		sort.Strings(sigs)
		qKeys[q] = in.Queries[q].Name + "\x00" + fstr(in.Queries[q].Runtime) +
			"\x00" + fstr(in.Queries[q].Weight) + "\x00" + strings.Join(sigs, "\x01")
	}
	sort.Slice(byQ, func(a, b int) bool { return qKeys[byQ[a]] < qKeys[byQ[b]] })
	qperm := make([]int, len(in.Queries))
	for c, q := range byQ {
		qperm[q] = c
	}

	out := &model.Instance{
		Indexes: make([]model.Index, n),
		Queries: make([]model.Query, len(in.Queries)),
	}
	for c, i := range byIdx {
		out.Indexes[c] = in.Indexes[i]
	}
	for c, q := range byQ {
		out.Queries[c] = in.Queries[q]
	}
	if len(in.Plans) > 0 {
		out.Plans = make([]model.Plan, len(in.Plans))
		for pi, p := range in.Plans {
			out.Plans[pi] = model.Plan{Query: qperm[p.Query], Indexes: planIdx[pi], Speedup: p.Speedup}
		}
		sort.Slice(out.Plans, func(a, b int) bool {
			pa, pb := &out.Plans[a], &out.Plans[b]
			if pa.Query != pb.Query {
				return pa.Query < pb.Query
			}
			if c := compareInts(pa.Indexes, pb.Indexes); c != 0 {
				return c < 0
			}
			return pa.Speedup < pb.Speedup
		})
	}
	if len(in.BuildInteractions) > 0 {
		out.BuildInteractions = make([]model.BuildInteraction, len(in.BuildInteractions))
		for bi, b := range in.BuildInteractions {
			out.BuildInteractions[bi] = model.BuildInteraction{
				Target: perm[b.Target], Helper: perm[b.Helper], Speedup: b.Speedup,
			}
		}
		sort.Slice(out.BuildInteractions, func(a, b int) bool {
			ba, bb := &out.BuildInteractions[a], &out.BuildInteractions[b]
			if ba.Target != bb.Target {
				return ba.Target < bb.Target
			}
			if ba.Helper != bb.Helper {
				return ba.Helper < bb.Helper
			}
			return ba.Speedup < bb.Speedup
		})
	}
	if len(in.Precedences) > 0 {
		out.Precedences = make([]model.Precedence, len(in.Precedences))
		for pi, pr := range in.Precedences {
			out.Precedences[pi] = model.Precedence{Before: perm[pr.Before], After: perm[pr.After]}
		}
		sort.Slice(out.Precedences, func(a, b int) bool {
			pa, pb := out.Precedences[a], out.Precedences[b]
			if pa.Before != pb.Before {
				return pa.Before < pb.Before
			}
			return pa.After < pb.After
		})
	}
	return out, perm
}

// CanonicalHash returns the hex SHA-256 of the canonical form of the
// instance: equal across reorderings/relabelings of the same problem,
// different for semantically different problems. The instance must be
// valid.
func CanonicalHash(in *model.Instance) string {
	canon, _ := Canonicalize(in)
	return HashCanonical(canon)
}

// HashCanonical is CanonicalHash for an instance that already is the
// output of Canonicalize: it hashes canon as it stands instead of
// canonicalizing it a second time.
func HashCanonical(canon *model.Instance) string {
	buf, err := json.Marshal(canon)
	if err != nil {
		// A valid model.Instance is plain data; Marshal cannot fail on it.
		panic("codec: canonical marshal: " + err.Error())
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// StructuralHash returns the hex SHA-256 of the instance's *structure*:
// index names, query names, plan shapes (query name plus index-name
// set), build-interaction pairs and precedence pairs — with every float
// parameter (create costs, runtimes, weights, speedups) left out.
// Parameter-only drift (reweighted queries, re-priced costs) keeps the
// structural hash stable while CanonicalHash changes; the solve service
// uses it to find a previous incumbent for the same structure and seed
// the re-solve with it instead of starting cold. The instance must be
// valid.
//
// The hashed text is five sections, each a tag followed by its sorted
// records joined by \x01; it streams into the hasher section by section.
func StructuralHash(in *model.Instance) string {
	h := sha256.New()
	w := bufio.NewWriter(h) // writes into a hash cannot fail; errors are not checked
	section := func(tag string, records []string) {
		sort.Strings(records)
		w.WriteString(tag)
		for k, r := range records {
			if k > 0 {
				w.WriteByte('\x01')
			}
			w.WriteString(r)
		}
	}

	ixNames := make([]string, len(in.Indexes))
	for i, ix := range in.Indexes {
		ixNames[i] = ix.Name
	}
	section("ix:", append([]string(nil), ixNames...))

	qNames := make([]string, len(in.Queries))
	for q, qu := range in.Queries {
		qNames[q] = qu.Name
	}
	section("\x00q:", append([]string(nil), qNames...))

	var names []string
	plans := make([]string, len(in.Plans))
	for pi, p := range in.Plans {
		names = names[:0]
		for _, i := range p.Indexes {
			names = append(names, ixNames[i])
		}
		sort.Strings(names)
		plans[pi] = qNames[p.Query] + "@" + strings.Join(names, ",")
	}
	section("\x00p:", plans)

	builds := make([]string, len(in.BuildInteractions))
	for bi, bld := range in.BuildInteractions {
		builds[bi] = ixNames[bld.Target] + "<-" + ixNames[bld.Helper]
	}
	section("\x00b:", builds)

	precs := make([]string, len(in.Precedences))
	for pi, pr := range in.Precedences {
		precs[pi] = ixNames[pr.Before] + "<" + ixNames[pr.After]
	}
	section("\x00pr:", precs)

	w.Flush()
	return hex.EncodeToString(h.Sum(nil))
}

// fstr formats a float so that equal values stringify equally and the
// round trip is exact.
func fstr(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func compareInts(a, b []int) int {
	for k := 0; k < len(a) && k < len(b); k++ {
		if a[k] != b[k] {
			if a[k] < b[k] {
				return -1
			}
			return 1
		}
	}
	return len(a) - len(b)
}
