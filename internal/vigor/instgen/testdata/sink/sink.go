// Package sink is where the refusal fixtures' instances would go.
package sink

type prodEnv struct{}

func (*prodEnv) Ask() bool { return false }
func (*prodEnv) Say(int)   {}
