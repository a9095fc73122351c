package store

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestKeyGolden pins the canonical encoding and SHA-256 keys of the
// cell-spec schema. These hashes are the durable contract of the
// result store: every cached result in every deployed store directory
// is addressed by them. If this test fails, the key schema changed and
// every cached result would be silently orphaned — either revert the
// change or bump SpecVersion (which orphans results *on purpose*) and
// update the goldens.
//
// The v1 -> v2 bump (deliberate, goldens regenerated) folded the
// topology scenario — boundary, rho, taudist — into the canonical
// form, so a torus result can never be served for an open-boundary
// cell and vice versa.
func TestKeyGolden(t *testing.T) {
	sweepCols := []string{
		"happy_frac", "unhappy", "iface_density", "mean_same_frac",
		"largest_frac", "magnetization", "mean_M", "flips", "fixated",
	}
	cases := []struct {
		spec      CellSpec
		canonical string
		key       string
	}{
		{
			spec:      CellSpec{Scope: "grid", Columns: sweepCols, Dynamic: "glauber", N: 96, W: 2, Tau: 0.42, P: 0.5, Rep: 0, Seed: 1},
			canonical: "gridseg/cell/v2|scope=grid|cols=happy_frac,unhappy,iface_density,mean_same_frac,largest_frac,magnetization,mean_M,flips,fixated|dyn=glauber|n=96|w=2|tau=0.42|p=0.5|b=torus|rho=0|taudist=global|xname=|x=0|rep=0|seed=1",
			key:       "eb0eaa1823b21ee9f9fce259f2489cb76f45974ff92ca0d6663231ec91057179",
		},
		{
			spec:      CellSpec{Scope: "grid", Columns: []string{"happy_frac"}, Dynamic: "kawasaki", N: 240, W: 4, Tau: 0.4375, P: 0.5, Rep: 3, Seed: 0xdeadbeefcafe},
			canonical: "gridseg/cell/v2|scope=grid|cols=happy_frac|dyn=kawasaki|n=240|w=4|tau=0.4375|p=0.5|b=torus|rho=0|taudist=global|xname=|x=0|rep=3|seed=244837814094590",
			key:       "bee0f470d1beb002e02b4b28673c83a6679889d087391fc220ec5c15c895f5f2",
		},
		{
			spec:      CellSpec{Scope: "E17", Columns: []string{"happy_frac", "flips"}, Dynamic: "glauber", N: 64, W: 1, Tau: 0.45, P: 0.55, ExtraName: "noise", Extra: 0.01, Rep: 7, Seed: 42},
			canonical: "gridseg/cell/v2|scope=E17|cols=happy_frac,flips|dyn=glauber|n=64|w=1|tau=0.45|p=0.55|b=torus|rho=0|taudist=global|xname=noise|x=0.01|rep=7|seed=42",
			key:       "acca85927aaed84a353217817c03c6dc7071b44bd304640e1bf10736089a32bf",
		},
		{
			spec:      CellSpec{},
			canonical: "gridseg/cell/v2|scope=|cols=|dyn=|n=0|w=0|tau=0|p=0|b=torus|rho=0|taudist=global|xname=|x=0|rep=0|seed=0",
			key:       "5c332d288ef8cd3b6f6c385cfb229aecae58d1444ff4ae47e226fef2f2fdebf0",
		},
		{
			spec:      CellSpec{Scope: "grid", Columns: []string{"happy_frac"}, Dynamic: "glauber", N: 64, W: 2, Tau: 0.42, P: 0.5, Boundary: "open", Rho: 0.05, TauDist: "mix:0.35,0.45:0.5", Rep: 1, Seed: 7},
			canonical: "gridseg/cell/v2|scope=grid|cols=happy_frac|dyn=glauber|n=64|w=2|tau=0.42|p=0.5|b=open|rho=0.05|taudist=mix:0.35,0.45:0.5|xname=|x=0|rep=1|seed=7",
			key:       "78579a4203ba4648cbbeb92ff7809a9027480fcbd50cc20e01bf3536a0806121",
		},
		{
			spec:      CellSpec{Scope: "grid", Columns: []string{"happy_frac"}, Dynamic: "move", N: 64, W: 2, Tau: 0.42, P: 0.5, Rho: 0.1, Rep: 0, Seed: 9},
			canonical: "gridseg/cell/v2|scope=grid|cols=happy_frac|dyn=move|n=64|w=2|tau=0.42|p=0.5|b=torus|rho=0.1|taudist=global|xname=|x=0|rep=0|seed=9",
			key:       "014aaf874fd8e97c2bda1f83382f18d3471c68858023dbcb8add23e7390734a9",
		},
	}
	for i, tc := range cases {
		if got := tc.spec.Canonical(); got != tc.canonical {
			t.Errorf("case %d: canonical changed:\n got  %s\n want %s", i, got, tc.canonical)
		}
		if got := tc.spec.Key(); got != tc.key {
			t.Errorf("case %d: key changed: got %s want %s", i, got, tc.key)
		}
	}
}

// TestKeyDistinguishesIdentity asserts every field of the spec feeds
// the key: cells differing in any single dimension must not share a
// cache slot.
func TestKeyDistinguishesIdentity(t *testing.T) {
	base := CellSpec{Scope: "s", Columns: []string{"a"}, Dynamic: "glauber", N: 10, W: 1, Tau: 0.4, P: 0.5, ExtraName: "x", Extra: 1, Rep: 0, Seed: 9}
	variants := []CellSpec{}
	for _, mut := range []func(*CellSpec){
		func(s *CellSpec) { s.Scope = "t" },
		func(s *CellSpec) { s.Columns = []string{"b"} },
		func(s *CellSpec) { s.Dynamic = "kawasaki" },
		func(s *CellSpec) { s.N = 11 },
		func(s *CellSpec) { s.W = 2 },
		func(s *CellSpec) { s.Tau = 0.41 },
		func(s *CellSpec) { s.P = 0.51 },
		func(s *CellSpec) { s.ExtraName = "y" },
		func(s *CellSpec) { s.Extra = 2 },
		func(s *CellSpec) { s.Rep = 1 },
		func(s *CellSpec) { s.Seed = 10 },
		func(s *CellSpec) { s.Boundary = "open" },
		func(s *CellSpec) { s.Rho = 0.05 },
		func(s *CellSpec) { s.TauDist = "mix:0.35,0.45:0.5" },
	} {
		v := base
		mut(&v)
		variants = append(variants, v)
	}
	seen := map[string]bool{base.Key(): true}
	for i, v := range variants {
		k := v.Key()
		if seen[k] {
			t.Errorf("variant %d collides: %s", i, v.Canonical())
		}
		seen[k] = true
	}
}

// testBackend is the shared conformance suite every Backend must
// pass. open returns a fresh handle onto the same underlying substrate
// each call — the same Memory instance, the same directory, the same
// remote server — so the persistence subtest exercises a real
// close-and-reopen, not a fresh empty store.
func testBackend(t *testing.T, open func() Backend) {
	t.Run("roundtrip", func(t *testing.T) {
		s := open()
		key := CellSpec{Scope: "rt", Seed: 1}.Key()
		if _, ok, err := s.Get(key); err != nil || ok {
			t.Fatalf("empty store Get = %v, %v", ok, err)
		}
		want := []float64{1.5, math.NaN(), -3, 0}
		if err := s.Put(key, want); err != nil {
			t.Fatal(err)
		}
		got, ok, err := s.Get(key)
		if err != nil || !ok {
			t.Fatalf("Get after Put = %v, %v", ok, err)
		}
		if len(got) != len(want) {
			t.Fatalf("got %v", got)
		}
		for i := range want {
			if math.IsNaN(want[i]) != math.IsNaN(got[i]) || (!math.IsNaN(want[i]) && want[i] != got[i]) {
				t.Fatalf("value %d: got %v want %v (NaN must survive the round trip)", i, got[i], want[i])
			}
		}
		// Idempotent overwrite.
		if err := s.Put(key, want); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("persistence", func(t *testing.T) {
		key := CellSpec{Scope: "persist", Seed: 2}.Key()
		if err := open().Put(key, []float64{42}); err != nil {
			t.Fatal(err)
		}
		got, ok, err := open().Get(key)
		if err != nil || !ok || got[0] != 42 {
			t.Fatalf("reopened store Get = %v, %v, %v", got, ok, err)
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		s := open()
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				key := CellSpec{Scope: "conc", Rep: i % 4}.Key()
				for j := 0; j < 20; j++ {
					if err := s.Put(key, []float64{float64(i % 4)}); err != nil {
						t.Error(err)
						return
					}
					v, ok, err := s.Get(key)
					if err != nil || !ok || v[0] != float64(i%4) {
						t.Errorf("Get = %v, %v, %v", v, ok, err)
						return
					}
				}
			}(i)
		}
		wg.Wait()
	})
	t.Run("concurrent put identical bytes", func(t *testing.T) {
		// Last-write-equivalence: cells are content-addressed, so every
		// writer racing on one key carries the same deterministic bytes
		// and any interleaving must leave exactly those bytes readable.
		key := CellSpec{Scope: "lwe", Seed: 3}.Key()
		want := []float64{0.25, math.NaN(), 7, -1.5}
		var wg sync.WaitGroup
		for i := 0; i < 12; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := open()
				for j := 0; j < 10; j++ {
					if err := s.Put(key, want); err != nil {
						t.Error(err)
						return
					}
					got, ok, err := s.Get(key)
					if err != nil || !ok || len(got) != len(want) {
						t.Errorf("Get = %v, %v, %v", got, ok, err)
						return
					}
					for k := range want {
						if math.IsNaN(want[k]) != math.IsNaN(got[k]) || (!math.IsNaN(want[k]) && want[k] != got[k]) {
							t.Errorf("value %d torn: got %v want %v", k, got[k], want[k])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	})
}

// TestBackendContract runs the conformance suite against every
// backend: in-process, file-backed, and remote (an HTTP client over
// the object endpoint, backed by a Dir — the cluster deployment
// shape).
func TestBackendContract(t *testing.T) {
	t.Run("memory", func(t *testing.T) {
		m := NewMemory()
		testBackend(t, func() Backend { return m })
	})
	t.Run("dir", func(t *testing.T) {
		root := filepath.Join(t.TempDir(), "cache")
		testBackend(t, func() Backend {
			d, err := Open(root)
			if err != nil {
				t.Fatal(err)
			}
			return d
		})
	})
	t.Run("remote", func(t *testing.T) {
		d, err := Open(filepath.Join(t.TempDir(), "cache"))
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(ObjectHandler(d))
		defer srv.Close()
		testBackend(t, func() Backend { return NewRemote(srv.URL, srv.Client()) })
	})
}

// malformedKeys are inputs validKey must reject on every strict
// backend: path traversal and length confusion must never reach the
// filesystem or the wire.
var malformedKeys = []string{"", "abc", "../../../../etc/passwd", string(make([]byte, 64))}

func TestDirRejectsMalformedKeys(t *testing.T) {
	d, err := Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range malformedKeys {
		if err := d.Put(key, []float64{1}); err == nil {
			t.Errorf("Put(%q) must fail", key)
		}
		if _, _, err := d.Get(key); err == nil {
			t.Errorf("Get(%q) must fail", key)
		}
	}
}

func TestRemoteRejectsMalformedKeys(t *testing.T) {
	// The handler must reject bad keys on its own: a non-Remote client
	// can hit the endpoint directly.
	srv := httptest.NewServer(ObjectHandler(NewMemory()))
	defer srv.Close()
	r := NewRemote(srv.URL, srv.Client())
	for _, key := range malformedKeys {
		if err := r.Put(key, []float64{1}); err == nil {
			t.Errorf("Remote.Put(%q) must fail", key)
		}
		if _, _, err := r.Get(key); err == nil {
			t.Errorf("Remote.Get(%q) must fail", key)
		}
	}
	// Server-side validation, bypassing the client's validKey check.
	resp, err := srv.Client().Get(srv.URL + "/not-a-key")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET bad key = %d, want 400", resp.StatusCode)
	}
}

func TestDirCorruptObject(t *testing.T) {
	d, err := Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	key := CellSpec{Scope: "corrupt"}.Key()
	if err := d.Put(key, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(d.path(key), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Get(key); err == nil {
		t.Fatal("corrupt object must surface an error, not a silent miss")
	}
}

// TestRemoteCorruptObject pins that corruption crosses the wire as an
// error: a torn object behind the server, and a confused server
// responding with the wrong key, must both fail the remote Get rather
// than degrade into a silent miss or a wrong value.
func TestRemoteCorruptObject(t *testing.T) {
	d, err := Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(ObjectHandler(d))
	defer srv.Close()
	r := NewRemote(srv.URL, srv.Client())

	key := CellSpec{Scope: "corrupt-remote"}.Key()
	if err := r.Put(key, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(d.path(key), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Get(key); err == nil {
		t.Fatal("corrupt object behind the server must surface an error")
	}

	// A server that answers with a different object's key.
	wrong := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		fmt.Fprintf(w, `{"key":%q,"values":[1]}`, CellSpec{Scope: "other"}.Key())
	}))
	defer wrong.Close()
	if _, _, err := NewRemote(wrong.URL, wrong.Client()).Get(key); err == nil {
		t.Fatal("key-mismatched response must surface an error")
	}
}

// TestDirLenReopen pins the cached-count semantics of Dir.Len: O(1)
// after the first scan, exact for this handle's own writes, and
// refreshed by reopening the store — the cross-process contract, since
// another process's writes land in the directory but not in this
// handle's counter.
func TestDirLenReopen(t *testing.T) {
	root := filepath.Join(t.TempDir(), "cache")
	d1, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	put := func(d *Dir, rep int) {
		t.Helper()
		if err := d.Put(CellSpec{Scope: "len", Rep: rep}.Key(), []float64{float64(rep)}); err != nil {
			t.Fatal(err)
		}
	}
	put(d1, 0)
	put(d1, 1)
	if n, err := d1.Len(); err != nil || n != 2 {
		t.Fatalf("d1.Len = %d, %v, want 2", n, err)
	}
	// Writes through this handle keep the cached count exact, and
	// overwrites must not inflate it.
	put(d1, 2)
	put(d1, 2)
	if n, err := d1.Len(); err != nil || n != 3 {
		t.Fatalf("d1.Len after put = %d, %v, want 3", n, err)
	}

	// A second handle over the same directory ("another process")
	// scans the current state on its first Len...
	d2, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := d2.Len(); err != nil || n != 3 {
		t.Fatalf("d2.Len = %d, %v, want 3", n, err)
	}
	// ...but does not observe d1's later writes until reopened: the
	// count is a per-handle snapshot plus own writes.
	put(d1, 3)
	if n, err := d2.Len(); err != nil || n != 3 {
		t.Fatalf("d2.Len after foreign put = %d, %v, want stale 3", n, err)
	}
	d3, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := d3.Len(); err != nil || n != 4 {
		t.Fatalf("d3.Len = %d, %v, want 4", n, err)
	}
}

// TestDirLenConcurrent hammers Len against concurrent Puts of fresh
// keys (run under -race): the count must end exact, with no torn or
// double-counted increments.
func TestDirLenConcurrent(t *testing.T) {
	d, err := Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := d.Len(); err != nil || n != 0 {
		t.Fatalf("Len = %d, %v", n, err)
	}
	const writers, perWriter = 8, 16
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				key := CellSpec{Scope: "lenrace", Rep: i*perWriter + j}.Key()
				if err := d.Put(key, []float64{1}); err != nil {
					t.Error(err)
					return
				}
				if _, err := d.Len(); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if n, err := d.Len(); err != nil || n != writers*perWriter {
		t.Fatalf("final Len = %d, %v, want %d", n, err, writers*perWriter)
	}
}
