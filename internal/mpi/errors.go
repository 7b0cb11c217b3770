package mpi

import (
	"errors"
	"fmt"
)

// ErrCountMismatch is the sentinel cause for collective calls whose
// count arguments or received payload lengths disagree with the world
// size or the peer's counts. Match with errors.Is.
var ErrCountMismatch = errors.New("mpi: count mismatch")

// CollectiveError is a typed failure of one collective call on one
// rank, returned as a core.Fault (CommFault).
type CollectiveError struct {
	Op   string // "gather", "alltoall", "recv_into"
	Rank int    // the rank that detected the failure
	Err  error  // cause; wraps ErrCountMismatch for shape errors
}

func (e *CollectiveError) Error() string {
	return fmt.Sprintf("mpi: %s on rank %d: %v", e.Op, e.Rank, e.Err)
}

func (e *CollectiveError) Unwrap() error { return e.Err }

// CommFault marks the error as a communication fault.
func (e *CollectiveError) CommFault() {}
