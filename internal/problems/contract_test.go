package problems

import (
	"testing"

	"repro/internal/afd"
	"repro/internal/consensus"
	"repro/internal/ioa"
	"repro/internal/system"
)

// TestAutomatonContracts applies the shared structural contract to every
// automaton this package defines, fresh and advanced.
func TestAutomatonContracts(t *testing.T) {
	oracle := NewParticipantOracle(3)
	oracle.Input(Query(1))
	oracle.Input(ioa.Crash(2))

	querier := NewQuerierEnv(0, 2)
	querier.Fire(Query(0))

	voter := NewVoterEnv(1, VoteYes)

	kset := KSetProcs(3, 1)
	cvp := ConsensusViaParticipantProcs(3)
	pvc, err := ParticipantViaConsensusProcs(3, afd.FamilyOmega)
	if err != nil {
		t.Fatal(err)
	}
	nbac, err := NBACProcs(3, afd.FamilyP)
	if err != nil {
		t.Fatal(err)
	}

	autos := []ioa.Automaton{oracle, querier, voter}
	autos = append(autos, kset...)
	autos = append(autos, cvp...)
	autos = append(autos, pvc...)
	autos = append(autos, nbac...)

	// Advance a few of them through representative inputs first.
	kset[0].Input(ioa.EnvInput("propose", 0, "a"))
	cvp[1].Input(ioa.EnvInput("propose", 1, "1"))
	pvc[2].Input(Query(2))
	nbac[0].Input(ioa.EnvInput(ActNameVote, 0, VoteYes))

	for _, a := range autos {
		if err := ioa.CheckAutomatonContract(a); err != nil {
			t.Error(err)
		}
	}
}

func TestKSetMachineAccessors(t *testing.T) {
	m := NewKSetMachine(2, 1, 0)
	if _, ok := m.Decided(); ok {
		t.Fatal("fresh machine decided")
	}
	c := m.Clone()
	if string(c.AppendEncode(nil)) != string(m.AppendEncode(nil)) {
		t.Fatal("clone encoding differs")
	}
}

func TestURBMachineContract(t *testing.T) {
	m := newURBMachine(2, 0, true, consensus.NewSetSuspector())
	e := system.NewEffects(0)
	m.OnEnvInput(ActNameBroadcast, "v", e)
	c := m.Clone()
	if string(c.AppendEncode(nil)) != string(m.AppendEncode(nil)) {
		t.Fatal("URB machine clone differs")
	}
	e2 := system.NewEffects(0)
	m.OnReceive(1, "E|1:1:w", e2)
	if string(c.AppendEncode(nil)) == string(m.AppendEncode(nil)) {
		t.Fatal("URB machine clone entangled")
	}
}
