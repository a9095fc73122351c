package store

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// keySpy is a Backend that records every key the handler passes on, so
// the fuzz test can check that no malformed key ever reaches storage.
type keySpy struct {
	*Memory
	keys []string
}

func (s *keySpy) Get(key string) ([]float64, bool, error) {
	s.keys = append(s.keys, key)
	return s.Memory.Get(key)
}

func (s *keySpy) Put(key string, values []float64) error {
	s.keys = append(s.keys, key)
	return s.Memory.Put(key, values)
}

// FuzzObjectHandler drives the object endpoint — the store's face to
// untrusted peers — with arbitrary keys and bodies, as a GET or a PUT
// against an empty in-memory store. Whatever the input, the handler
// must not panic, must answer with a protocol status (never a 5xx: the
// backend cannot fail here), must pass no malformed key to the
// backend, and must store an object exactly when it answers a PUT with
// 204 — under the path's key, with the body's values bit for bit
// (NaN as null), which a GET then returns unchanged.
func FuzzObjectHandler(f *testing.F) {
	good := CellSpec{Scope: "fuzz"}.Key()
	other := CellSpec{Scope: "other"}.Key()
	for _, s := range []struct {
		key, body string
		put       bool
	}{
		{good, `{"key":"` + good + `","values":[1,null,-2.5,1e-300]}`, true},
		{good, `{"key":"` + good + `","values":[]}`, true},
		{good, `{"key":"` + good + `"}`, true},
		{good, `{"key":"` + other + `","values":[1]}`, true},
		{good, `{"key":"` + good + `","values":[1e999]}`, true},
		{good, `{"key":"` + good + `","values":"x"}`, true},
		{good, `{"key":"` + good + `","values":[1,2`, true},
		{good, `null`, true},
		{good, ``, true},
		{good, ``, false},
		{strings.ToUpper(good), `{"key":"` + strings.ToUpper(good) + `","values":[1]}`, true},
		{good[:63], ``, false},
		{good + "0", ``, false},
		{good + "/x", ``, false},
		{"../../etc/passwd", ``, false},
		{"%2e%2e%2f" + good[9:], ``, true},
		{"", ``, false},
		{"not-a-key", `{"key":"not-a-key","values":[1]}`, true},
		{good, `{"key":"` + good + `","values":[` + strings.TrimSuffix(strings.Repeat("0.5,", maxObjectBytes/4), ",") + `]}`, true},
	} {
		f.Add(s.key, []byte(s.body), s.put)
	}
	f.Fuzz(func(t *testing.T, key string, body []byte, put bool) {
		spy := &keySpy{Memory: NewMemory()}
		h := ObjectHandler(spy)
		method := http.MethodGet
		if put {
			method = http.MethodPut
		}
		req := httptest.NewRequest(method, "/", bytes.NewReader(body))
		req.URL.Path, req.URL.RawPath = "/"+key, ""
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusNoContent, http.StatusBadRequest, http.StatusNotFound,
			http.StatusMethodNotAllowed, http.StatusMovedPermanently, http.StatusTemporaryRedirect, http.StatusPermanentRedirect:
		default:
			t.Fatalf("%s %.80q answered %d: %.200s", method, key, rec.Code, rec.Body)
		}
		for _, k := range spy.keys {
			if !validKey(k) {
				t.Fatalf("%s %.80q passed malformed key %.80q to the backend", method, key, k)
			}
		}
		stored := spy.Len()
		if !put || rec.Code != http.StatusNoContent {
			if stored != 0 {
				t.Fatalf("%s %.80q answered %d but stored %d objects", method, key, rec.Code, stored)
			}
			if !put && rec.Code == http.StatusOK {
				t.Fatalf("GET %.80q found an object in an empty store", key)
			}
			return
		}
		if !validKey(key) || stored != 1 {
			t.Fatalf("PUT %.80q answered 204 and stored %d objects", key, stored)
		}
		var sent object
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&sent); err != nil {
			t.Fatalf("PUT %.80q accepted a body that does not decode: %v", key, err)
		}
		got, ok, err := spy.Memory.Get(key)
		if err != nil || !ok || !sameBits(got, sent.Values) {
			t.Fatalf("PUT %.80q stored %v (ok %v, err %v), body held %v", key, got, ok, err, sent.Values)
		}
		rec = httptest.NewRecorder()
		req = httptest.NewRequest(http.MethodGet, "/", nil)
		req.URL.Path = "/" + key
		h.ServeHTTP(rec, req)
		var back object
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &back) != nil || back.Key != key || !sameBits(got, back.Values) {
			t.Fatalf("GET after PUT %.80q answered %d %.200s", key, rec.Code, rec.Body)
		}
	})
}

// sameBits reports whether a stored vector matches a wire vector bit
// for bit.
func sameBits(stored []float64, wire []NaNFloat) bool {
	if len(stored) != len(wire) {
		return false
	}
	for i, v := range stored {
		if math.Float64bits(v) != math.Float64bits(float64(wire[i])) {
			return false
		}
	}
	return true
}
