package main

import (
	"sync"
	"time"

	"graphtrek/internal/core"
	"graphtrek/internal/route"
	"graphtrek/internal/rpc"
	"graphtrek/internal/trace"
)

// This file is the benchmark's one wire-protocol client, assembled the way
// gtq and graphtrek-gen -connect assemble theirs: a core.Client over the
// cluster's identity route table, bound to a TCP transport in a client
// slot after the backends.

type traceDAG = trace.DAG

// wireClient is a connected client and its transport.
type wireClient struct {
	*core.Client
	tcp   *rpc.TCP
	close sync.Once
}

// dial connects a client in slot self of the deployment's address list.
func (d *deployment) dial(self int) (*wireClient, error) {
	client := core.NewClient(route.NewView(route.Identity(d.servers, d.replicas)))
	tcp, err := rpc.NewTCP(self, d.addrs, client.Handle)
	if err != nil {
		return nil, err
	}
	client.Bind(tcp)
	return &wireClient{Client: client, tcp: tcp}, nil
}

func (w *wireClient) Close() { w.close.Do(func() { w.tcp.Close() }) }

// travelTimeout bounds every traversal and write the benchmark sends; an
// operation that needs longer counts as failed.
const travelTimeout = 20 * time.Second

// submit starts a traversal on the wire client.
func (w *wireClient) submit(q querySpec) (*core.Handle, error) {
	plan, err := q.travel().Compile()
	if err != nil {
		return nil, err
	}
	return w.SubmitPlanAsync(plan, core.SubmitOptions{Mode: core.ModeGraphTrek, Coordinator: -1, Timeout: travelTimeout})
}
