// Package testlog routes log/slog records to a test's log, so code that
// takes a *slog.Logger logs through t.Log: shown with -v and on failure.
package testlog

import (
	"log/slog"
	"strings"
	"testing"
)

// New returns a logger that writes each record, at Info and above, as
// one t.Log line in slog's text format.
func New(t testing.TB) *slog.Logger {
	return slog.New(slog.NewTextHandler(writer{t}, nil))
}

// writer hands each formatted record to t.Log.
type writer struct{ t testing.TB }

func (w writer) Write(p []byte) (int, error) {
	w.t.Helper()
	w.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}
