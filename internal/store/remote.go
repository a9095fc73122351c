package store

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// maxObjectBytes bounds a decoded object body. A cell object is a key
// plus a handful of floats — a few hundred bytes — so 1 MiB is pure
// headroom against a confused or hostile peer.
const maxObjectBytes = 1 << 20

// Remote is a Backend served over HTTP by another process — in the
// distributed fabric, the coordinator's object endpoint backed by its
// local Dir. The wire format is exactly the on-disk object shape
// ({"key":..., "values":[...]} with NaN as null), so a remote Get
// returns byte-identical vectors to a local one and the golden key
// schema is preserved end to end.
//
// Remote performs no internal retries: a transport failure surfaces as
// an error and the caller (the batch engine's fail-soft storeGuard, or
// the fabric worker's retry loop) decides policy. Every request runs
// under a per-request deadline so a dead server cannot hang a caller
// that holds no deadline of its own. It is safe for concurrent use;
// http.Client pools connections internally.
type Remote struct {
	base    string
	client  *http.Client
	timeout time.Duration
	token   string
}

// RemoteOptions tunes a Remote beyond its base URL.
type RemoteOptions struct {
	// Client is the HTTP client; nil means http.DefaultClient.
	Client *http.Client
	// Timeout bounds each Get/Put round trip; zero means 30s.
	Timeout time.Duration
	// Token, when non-empty, is sent as an "Authorization: Bearer"
	// header, matching the serving coordinator's -token.
	Token string
}

// NewRemote returns a Backend talking to the object endpoint rooted at
// base (e.g. "http://coordinator:8080/objects"). A nil client means
// http.DefaultClient.
func NewRemote(base string, client *http.Client) *Remote {
	return NewRemoteWith(base, RemoteOptions{Client: client})
}

// NewRemoteWith is NewRemote with explicit options.
func NewRemoteWith(base string, opt RemoteOptions) *Remote {
	client := opt.Client
	if client == nil {
		client = http.DefaultClient
	}
	timeout := opt.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	return &Remote{
		base:    strings.TrimRight(base, "/"),
		client:  client,
		timeout: timeout,
		token:   opt.Token,
	}
}

// newRequest builds one deadline-bounded object request. The returned
// cancel must be held until the response body has been consumed.
func (r *Remote) newRequest(method, key string, body io.Reader) (*http.Request, context.CancelFunc, error) {
	ctx, cancel := context.WithTimeout(context.Background(), r.timeout)
	req, err := http.NewRequestWithContext(ctx, method, r.base+"/"+key, body)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	if r.token != "" {
		req.Header.Set("Authorization", "Bearer "+r.token)
	}
	return req, cancel, nil
}

// Get implements Backend. A 404 is a miss, not an error; a response
// whose object does not round-trip (bad JSON, key mismatch) is
// reported as corruption, mirroring Dir.Get.
func (r *Remote) Get(key string) (values []float64, ok bool, err error) {
	defer observeGet(time.Now(), &ok, &err)
	if !validKey(key) {
		return nil, false, fmt.Errorf("store: malformed key %q", key)
	}
	req, cancel, err := r.newRequest(http.MethodGet, key, nil)
	if err != nil {
		return nil, false, fmt.Errorf("store: %w", err)
	}
	defer cancel()
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, false, fmt.Errorf("store: remote get: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		io.Copy(io.Discard, resp.Body)
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("store: remote get %s: %s", key, httpError(resp))
	}
	var obj object
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxObjectBytes)).Decode(&obj); err != nil {
		return nil, false, fmt.Errorf("store: corrupt remote object %s: %w", key, err)
	}
	if obj.Key != key {
		return nil, false, fmt.Errorf("store: remote object %s holds key %s", key, obj.Key)
	}
	return Float64s(obj.Values), true, nil
}

// Put implements Backend.
func (r *Remote) Put(key string, values []float64) (err error) {
	defer observePut(time.Now(), &err)
	if !validKey(key) {
		return fmt.Errorf("store: malformed key %q", key)
	}
	data, err := json.Marshal(object{Key: key, Values: NaNFloats(values)})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	req, cancel, err := r.newRequest(http.MethodPut, key, bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer cancel()
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return fmt.Errorf("store: remote put: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("store: remote put %s: %s", key, httpError(resp))
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// httpError summarizes a non-success response: status line plus the
// first line of the body, which our handlers fill with the error text.
func httpError(resp *http.Response) string {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	msg := strings.TrimSpace(string(body))
	if i := strings.IndexByte(msg, '\n'); i >= 0 {
		msg = msg[:i]
	}
	if msg == "" {
		return resp.Status
	}
	return resp.Status + ": " + msg
}

// ObjectHandler serves the object wire protocol over any Backend. It
// is the server half of Remote: GET /{key} returns the object (404 on
// miss), PUT /{key} stores it (204). Keys are validated on both sides,
// and a backend error — including corrupt-object detection in Dir —
// surfaces as a 500 whose body carries the error text, so the failure
// mode crosses the wire instead of degrading into a silent miss.
func ObjectHandler(b Backend) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{key}", func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		if !validKey(key) {
			http.Error(w, fmt.Sprintf("malformed key %q", key), http.StatusBadRequest)
			return
		}
		values, ok, err := b.Get(key)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if !ok {
			http.Error(w, "no such object", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(object{Key: key, Values: NaNFloats(values)})
	})
	mux.HandleFunc("PUT /{key}", func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		if !validKey(key) {
			http.Error(w, fmt.Sprintf("malformed key %q", key), http.StatusBadRequest)
			return
		}
		var obj object
		if err := json.NewDecoder(io.LimitReader(r.Body, maxObjectBytes)).Decode(&obj); err != nil {
			http.Error(w, fmt.Sprintf("bad object body: %v", err), http.StatusBadRequest)
			return
		}
		if obj.Key != key {
			http.Error(w, fmt.Sprintf("object body holds key %s", obj.Key), http.StatusBadRequest)
			return
		}
		if err := b.Put(key, Float64s(obj.Values)); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}
