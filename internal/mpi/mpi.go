// Package mpi is the in-process message-passing runtime under the names
// the rest of the repository uses: a World of R ranks, each running the
// same SPMD function on its own goroutine and communicating through
// core.Comm. It substitutes for the MPI layer of the paper's
// implementation. The runtime is mpinet's memory-linked world — the same
// *mpinet.Proc, mailboxes, collectives, stream and *mpinet.TransportError
// as the TCP mesh — and World.Stats counts every byte that would cross
// the wire, so internal/netsim can price a run on the paper's fabrics.
package mpi

import "soifft/internal/mpinet"

// Comm is one rank's handle on the world.
type Comm = mpinet.Proc

// World is a fixed-size set of memory-linked ranks.
type World = mpinet.World

// Stats aggregates a world's communication volume.
type Stats = mpinet.WorldStats

// NewWorld creates a world of size ranks.
func NewWorld(size int) (*World, error) { return mpinet.NewWorld(size) }
