package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/evolving-olap/idd/internal/codec"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/prune"
	"github.com/evolving-olap/idd/internal/randgen"
	"github.com/evolving-olap/idd/internal/service"
	"github.com/evolving-olap/idd/internal/solver/astar"
)

// testCluster is an in-process multi-node cluster: real listeners, real
// HTTP between nodes, everything else in one test binary.
type testCluster struct {
	t     *testing.T
	nodes []*Node
	srvs  []*http.Server
	urls  []string
}

// newTestCluster brings up k nodes. Listeners are bound first so every
// peer URL is known before any node is constructed (membership is
// static). Gossip intervals are cranked down so peer discovery and
// failure detection land in tens of milliseconds.
func newTestCluster(t *testing.T, k int, svcCfg service.Config) *testCluster {
	t.Helper()
	tc := &testCluster{t: t}
	lns := make([]net.Listener, k)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		tc.urls = append(tc.urls, "http://"+ln.Addr().String())
	}
	for i := range lns {
		cfg := Config{
			Self:           tc.urls[i],
			Peers:          tc.urls,
			GossipInterval: 25 * time.Millisecond,
			PeerTimeout:    100 * time.Millisecond,
		}
		n, err := New(cfg, svcCfg)
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: n.Handler()}
		go hs.Serve(lns[i])
		n.Start()
		tc.nodes = append(tc.nodes, n)
		tc.srvs = append(tc.srvs, hs)
	}
	t.Cleanup(func() {
		for i := range tc.nodes {
			tc.stopNode(i)
		}
	})
	// Wait until every node sees every peer up.
	deadline := time.Now().Add(5 * time.Second)
	for _, n := range tc.nodes {
		for {
			up := 0
			for _, p := range n.clusterHealth().Peers {
				if p.State == "up" {
					up++
				}
			}
			if up == k-1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("gossip never converged on %s", n.Name())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return tc
}

// stopNode simulates a node dying: HTTP surface closed, loops canceled,
// service drained. Idempotent.
func (tc *testCluster) stopNode(i int) {
	if tc.nodes[i] == nil {
		return
	}
	tc.srvs[i].Close()
	tc.nodes[i].Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	tc.nodes[i].Server().Shutdown(ctx)
	cancel()
	tc.nodes[i] = nil
}

// ownerIdx computes which node the ring assigns the instance to.
func (tc *testCluster) ownerIdx(in *model.Instance) int {
	canon, _ := codec.Canonicalize(in)
	owner := tc.nodes[tc.firstLive()].ring.owner(codec.CanonicalHash(canon))
	for i, u := range tc.urls {
		if u == owner {
			return i
		}
	}
	tc.t.Fatalf("owner %s not among nodes", owner)
	return -1
}

func (tc *testCluster) firstLive() int {
	for i, n := range tc.nodes {
		if n != nil {
			return i
		}
	}
	tc.t.Fatal("no live nodes")
	return -1
}

func genInstance(seed int64, indexes, queries int, interact float64) *model.Instance {
	cfg := randgen.DefaultConfig()
	cfg.Indexes = indexes
	cfg.Queries = queries
	cfg.BuildInteractionProb = interact
	return randgen.New(rand.New(rand.NewSource(seed)), cfg)
}

// solveBody builds the POST /solve JSON envelope.
func solveBody(t *testing.T, in *model.Instance, extra map[string]any) []byte {
	t.Helper()
	m := map[string]any{"instance": in}
	for k, v := range extra {
		m[k] = v
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func post(t *testing.T, url string, body []byte, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterForwardingAndReplication: a request landing on a non-owner
// is forwarded to the ring owner (so single-flight and the cache stay
// cluster-wide), and the finished result is replicated so ANY node
// serves the next identical request from its own cache.
func TestClusterForwardingAndReplication(t *testing.T) {
	tc := newTestCluster(t, 3, service.Config{Workers: 1})
	in := genInstance(2, 7, 6, 0.1)
	ownerI := tc.ownerIdx(in)
	nonOwner := (ownerI + 1) % 3
	third := (ownerI + 2) % 3

	body := solveBody(t, in, map[string]any{"backends": []string{"cp"}, "budget": "30s"})
	resp, out := post(t, tc.urls[nonOwner]+"/solve", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d: %s", resp.StatusCode, out)
	}
	var res service.SolveResult
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Proved {
		t.Fatalf("solve not proved: %s", out)
	}
	if err := in.ValidOrder(res.Order); err != nil {
		t.Fatalf("returned order invalid: %v", err)
	}
	if got := tc.nodes[nonOwner].Snapshot().Forwards; got < 1 {
		t.Fatalf("expected the non-owner to forward to the ring owner, forwards=%d", got)
	}

	// Result replication: the third node (neither submitter nor owner)
	// learns the result and serves it as a local cache hit.
	waitFor(t, "result replication", 5*time.Second, func() bool {
		return tc.nodes[third].Snapshot().ResultsApplied >= 1
	})
	resp, out = post(t, tc.urls[third]+"/solve", body, map[string]string{ForwardedHeader: "test"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replayed solve status %d: %s", resp.StatusCode, out)
	}
	var res2 service.SolveResult
	if err := json.Unmarshal(out, &res2); err != nil {
		t.Fatal(err)
	}
	if !res2.CacheHit {
		t.Fatalf("expected a local cache hit on the replicated result: %s", out)
	}
	if res2.Objective != res.Objective {
		t.Fatalf("replicated objective %v != original %v", res2.Objective, res.Objective)
	}
}

// TestClusterJobProxy: job ids are node-prefixed, so any node can serve
// GET /jobs/{id} by proxying to the id's home node.
func TestClusterJobProxy(t *testing.T) {
	tc := newTestCluster(t, 2, service.Config{Workers: 1})
	in := genInstance(3, 7, 6, 0.1)
	body := solveBody(t, in, map[string]any{"backends": []string{"cp"}, "budget": "30s"})
	// Pin execution to node 0 (the forwarded marker skips rerouting).
	resp, out := post(t, tc.urls[0]+"/jobs", body, map[string]string{ForwardedHeader: "test"})
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status %d: %s", resp.StatusCode, out)
	}
	var job service.JobStatus
	if err := json.Unmarshal(out, &job); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(job.ID, tc.nodes[0].Name()+"-") {
		t.Fatalf("job id %q not prefixed with node name %q", job.ID, tc.nodes[0].Name())
	}

	waitFor(t, "proxied job completion", 30*time.Second, func() bool {
		r, err := http.Get(tc.urls[1] + "/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("proxied GET status %d", r.StatusCode)
		}
		var st service.JobStatus
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.State == service.StateDone
	})
	if got := tc.nodes[1].Snapshot().Proxied; got < 1 {
		t.Fatalf("expected node 1 to proxy the id-addressed request, proxied=%d", got)
	}
}

// astarReference proves the instance with A* alone, run to completion
// outside any service or cluster, on exactly the problem the owning
// node solves: the canonical instance under the pruning analysis's
// constraint set. Its objective is the bit-exact baseline a clustered
// proof must match.
func astarReference(t *testing.T, in *model.Instance) float64 {
	t.Helper()
	canon, _ := codec.Canonicalize(in)
	c := model.MustCompile(canon)
	cs, _ := prune.Analyze(c, prune.Options{})
	res, err := astar.Solve(c, cs, astar.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proved {
		t.Fatal("A* reference not proved")
	}
	return res.Objective
}

// TestClusterForwardedProof: a solve submitted to a node that does not
// own the instance is forwarded to its ring owner, which proves it with
// the default portfolio. The proved objective must be bit-identical to
// an isolated A* proof of the same problem. The budget is two orders of
// magnitude above what the proof needs, so the verdict never depends
// on how fast the machine is.
func TestClusterForwardedProof(t *testing.T) {
	in := genInstance(33, 14, 10, 0.35)
	ref := astarReference(t, in)

	tc := newTestCluster(t, 3, service.Config{Workers: 1})
	ownerI := tc.ownerIdx(in)
	submitI := (ownerI + 1) % 3

	body := solveBody(t, in, map[string]any{"budget": "60s"})
	resp, out := post(t, tc.urls[submitI]+"/solve", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d: %s", resp.StatusCode, out)
	}
	var res service.SolveResult
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Proved {
		t.Fatalf("forwarded solve not proved: %s", out)
	}
	if math.Float64bits(res.Objective) != math.Float64bits(ref) {
		t.Fatalf("forwarded objective %v (%x) != isolated A* %v (%x): must be bit-identical",
			res.Objective, math.Float64bits(res.Objective), ref, math.Float64bits(ref))
	}
	if err := in.ValidOrder(res.Order); err != nil {
		t.Fatalf("returned order invalid: %v", err)
	}
	if got := tc.nodes[submitI].Snapshot().Forwards; got < 1 {
		t.Fatalf("the non-owner served the solve itself instead of forwarding, forwards=%d", got)
	}
}

// TestClusterHealthzAndMetrics: the wrapped endpoints carry the cluster
// sections — peer membership with health in /healthz, the idd_cluster_*
// counters in both /metrics forms.
func TestClusterHealthzAndMetrics(t *testing.T) {
	tc := newTestCluster(t, 2, service.Config{Workers: 1})
	r, err := http.Get(tc.urls[0] + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status  string        `json:"status"`
		Cluster ClusterHealth `json:"cluster"`
	}
	if err := json.NewDecoder(r.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if hz.Status != "ok" {
		t.Fatalf("status %q", hz.Status)
	}
	if hz.Cluster.Name != tc.nodes[0].Name() || len(hz.Cluster.Peers) != 1 {
		t.Fatalf("bad cluster section: %+v", hz.Cluster)
	}
	if p := hz.Cluster.Peers[0]; p.State != "up" || p.Name != tc.nodes[1].Name() || p.Addr != tc.urls[1] {
		t.Fatalf("bad peer row: %+v", p)
	}

	r, err = http.Get(tc.urls[0] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var ms struct {
		Workers int `json:"workers"`
		Cluster *ClusterSnapshot
	}
	if err := json.NewDecoder(r.Body).Decode(&ms); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if ms.Cluster == nil {
		t.Fatal("JSON metrics missing cluster section")
	}
	if ms.Workers != 1 {
		t.Fatalf("service snapshot fields not inlined next to cluster section: %+v", ms)
	}

	r, err = http.Get(tc.urls[0] + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(r.Body)
	r.Body.Close()
	for _, want := range []string{"idd_cluster_peers_up", "idd_cluster_forwards_total"} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("prometheus output missing %s", want)
		}
	}
}

// TestClusterPeerRoutes pins the node-to-node surface: health, incumbent
// exchange and result replication are served; the retired subtree-export
// routes fall through to the service and are not found, and the health
// gossip carries no load flag for peers to poll.
func TestClusterPeerRoutes(t *testing.T) {
	tc := newTestCluster(t, 2, service.Config{Workers: 1})
	r, err := http.Get(tc.urls[0] + "/cluster/health")
	if err != nil {
		t.Fatal(err)
	}
	var hm map[string]json.RawMessage
	err = json.NewDecoder(r.Body).Decode(&hm)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/cluster/health status %d", r.StatusCode)
	}
	if _, ok := hm["name"]; !ok {
		t.Fatalf("/cluster/health body lacks the node name: %v", hm)
	}
	if _, ok := hm["busy"]; ok {
		t.Fatalf("/cluster/health still gossips a busy flag: %v", hm)
	}
	for _, path := range []string{"/cluster/steal", "/cluster/complete"} {
		resp, out := post(t, tc.urls[0]+path, []byte(`{}`), nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("POST %s status %d, want 404: %s", path, resp.StatusCode, out)
		}
	}
}
