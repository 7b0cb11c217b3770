package gate_test

import (
	"testing"

	"soifft/client"
	"soifft/internal/gate"
	"soifft/internal/serve"
	"soifft/internal/signal"
)

// BenchmarkServeRoundTrip times one n = 4096 forward transform through
// the serving tier, straight to a replica and via the gateway; B/op is
// what a warm round trip allocates, the caller's result included.
func BenchmarkServeRoundTrip(b *testing.B) {
	const n = 4096
	spec, _ := startReplica(b, serve.Config{})
	g := startGateway(b, gate.Config{Replicas: []gate.ReplicaSpec{spec}})
	src := signal.Random(n, 1)
	for _, tc := range []struct{ name, addr string }{
		{"direct", spec.Addr},
		{"gateway", g.Addr().String()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			c, err := client.Dial(tc.addr)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Transform(src, nil); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Transform(src, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
