package scanner

import (
	"context"
	"errors"
	"testing"

	"goingwild/internal/dnswire"
)

// TestNilTransportGuards drives every public scan entrypoint against a
// scanner built with a nil transport. Each one must refuse cleanly, with
// ErrNoTransport and nothing found, instead of panicking on the first
// send. This is
// the regression test for the constructor-misuse crash: callers that
// wire the transport conditionally (e.g. -udp fallback paths) used to
// take a nil-pointer panic deep inside the send loop.
func TestNilTransportGuards(t *testing.T) {
	ctx := context.Background()
	resolvers := []uint32{0x01020304, 0x05060708}

	tests := []struct {
		name string
		call func(s *Scanner) error
	}{
		{"SweepContext", func(s *Scanner) error {
			_, err := s.SweepContext(ctx, 8, 1, nil)
			return err
		}},
		{"ProbeContext", func(s *Scanner) error {
			_, err := s.ProbeContext(ctx, resolvers[0], "example.com", dnswire.TypeA, dnswire.ClassIN)
			return err
		}},
		{"ProbeAliveContext", func(s *Scanner) error {
			_, err := s.ProbeAliveContext(ctx, resolvers)
			return err
		}},
		{"ScanDomainsContext", func(s *Scanner) error {
			_, err := s.ScanDomainsContext(ctx, resolvers, []string{"example.com"})
			return err
		}},
		{"ScanChaosContext", func(s *Scanner) error {
			_, err := s.ScanChaosContext(ctx, resolvers)
			return err
		}},
		{"SnoopRoundContext", func(s *Scanner) error {
			_, err := s.SnoopRoundContext(ctx, resolvers, "com", 1)
			return err
		}},
		{"ScanANYContext", func(s *Scanner) error {
			_, err := s.ScanANYContext(ctx, resolvers, "example.com")
			return err
		}},
		{"LookupPTR", func(s *Scanner) error {
			name, ok, err := s.LookupPTR(ctx, resolvers[0], resolvers[1])
			if ok || name != "" {
				return errors.New("LookupPTR succeeded without a transport")
			}
			return err
		}},
		{"LookupA", func(s *Scanner) error {
			addrs, rcode, ok, err := s.LookupA(ctx, resolvers[0], "example.com")
			if ok || len(addrs) != 0 || rcode != 0 {
				return errors.New("LookupA succeeded without a transport")
			}
			return err
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			s := New(nil, Options{SettleDelay: NoSettle})
			if err := tc.call(s); !errors.Is(err, ErrNoTransport) {
				t.Errorf("%s with nil transport: got %v, want ErrNoTransport", tc.name, err)
			}
		})
	}
}
