// Package leaky holds the generator's refusal fixtures: functions whose
// bodies an instance could, or could not, carry into another package.
package leaky

import "strings"

// Env is the fixtures' window onto the world.
type Env interface {
	Ask() bool
	Say(n int)
}

const limit = 3

// Clean reaches nothing but env and its own locals.
func Clean(env Env) {
	n := 0
	for env.Ask() {
		n++
	}
	env.Say(n)
}

// NamesConst names a package-level constant.
func NamesConst(env Env) {
	if env.Ask() {
		env.Say(limit)
	}
}

// NamesImport names an imported package.
func NamesImport(env Env) {
	env.Say(len(strings.TrimSpace(" ")))
}

// TwoParams has a second parameter.
func TwoParams(env Env, n int) { env.Say(n) }

// WrongType takes something other than Env.
func WrongType(env interface{ Say(int) }) { env.Say(0) }
