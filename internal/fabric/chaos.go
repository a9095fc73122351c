package fabric

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"gridseg/internal/rng"
)

// ChaosTransport is a fault-injecting http.RoundTripper for the chaos
// tests: it wraps a real transport and, on a seeded deterministic
// schedule, replaces calls with the three failure shapes a distributed
// fabric must survive:
//
//   - timeout: the request is dropped before dispatch and a net.Error
//     with Timeout()=true is returned — the server never saw it.
//   - reject: a synthesized 503 is returned without dispatch — a load
//     balancer or overloaded server turning the request away.
//   - torn: the request IS dispatched and its server-side effect
//     happens, but the response is destroyed and an error returned —
//     the cruelest case, because the client cannot tell effect from
//     no-effect and must rely on protocol idempotency when retrying.
//
// The schedule is a pure function of the seed and the call sequence
// (draws are consumed under a mutex in call order), so a failing run
// reproduces by rerunning with the same seed.
type ChaosTransport struct {
	// Base is the real transport; nil means http.DefaultTransport.
	Base http.RoundTripper
	// PTimeout, PReject, and PTear are the per-call fault
	// probabilities (summing to at most 1).
	PTimeout, PReject, PTear float64

	mu     sync.Mutex
	src    *rng.Source
	faults int
}

// NewChaosTransport builds a chaos transport with the given seed and
// fault probabilities. Probabilities apply per call, independently.
func NewChaosTransport(seed uint64, base http.RoundTripper, pTimeout, pReject, pTear float64) *ChaosTransport {
	return &ChaosTransport{
		Base:     base,
		PTimeout: pTimeout,
		PReject:  pReject,
		PTear:    pTear,
		src:      rng.New(seed),
	}
}

// chaosMode is the fault drawn for one call.
type chaosMode int

const (
	chaosNone chaosMode = iota
	chaosTimeout
	chaosReject
	chaosTear
)

// RoundTrip implements http.RoundTripper.
func (c *ChaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.mu.Lock()
	mode := chaosNone
	r := c.src.Float64()
	switch {
	case r < c.PTimeout:
		mode = chaosTimeout
	case r < c.PTimeout+c.PReject:
		mode = chaosReject
	case r < c.PTimeout+c.PReject+c.PTear:
		mode = chaosTear
	}
	if mode != chaosNone {
		c.faults++
	}
	c.mu.Unlock()

	base := c.Base
	if base == nil {
		base = http.DefaultTransport
	}
	switch mode {
	case chaosTimeout:
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, timeoutError{}
	case chaosReject:
		if req.Body != nil {
			req.Body.Close()
		}
		return &http.Response{
			Status:     "503 Service Unavailable",
			StatusCode: http.StatusServiceUnavailable,
			Proto:      req.Proto,
			ProtoMajor: req.ProtoMajor,
			ProtoMinor: req.ProtoMinor,
			Header:     http.Header{},
			Body:       io.NopCloser(strings.NewReader("chaos: injected rejection")),
			Request:    req,
		}, nil
	case chaosTear:
		resp, err := base.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		// The server-side effect has happened; destroy the evidence.
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxBodyBytes))
		resp.Body.Close()
		return nil, fmt.Errorf("chaos: torn connection: %w", io.ErrUnexpectedEOF)
	}
	return base.RoundTrip(req)
}

// Faults returns how many calls were replaced with an injected fault.
func (c *ChaosTransport) Faults() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.faults
}

// timeoutError is the injected pre-dispatch failure; it satisfies
// net.Error so client code treating timeouts specially sees the real
// shape.
type timeoutError struct{}

func (timeoutError) Error() string   { return "chaos: injected timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }
