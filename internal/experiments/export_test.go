package experiments

import "diogenes/internal/mpi"

// NewFaultyProg wraps prog so every world it runs fails at failRank's
// step, for fault-injection tests outside the package.
func NewFaultyProg(prog mpi.RankProgram, failRank int) mpi.RankProgram {
	return &faultyProg{RankProgram: prog, failRank: failRank}
}
