// Package lib holds one export per case of the caller check.
package lib

// Used is called from app: not reported.
func Used() {}

// Unused is referenced nowhere: reported.
func Unused() {}

// TestOnly is called only from lib_test.go: reported.
func TestOnly() {}

// BenchOnly is called only from a test file under benchmark/: not
// reported.
func BenchOnly() {}

// Allowed is referenced nowhere but allowlisted: not reported.
func Allowed() {}

// Impl is used from app.
type Impl struct{}

// Hidden is selected nowhere, but an interface in app declares it: not
// reported.
func (Impl) Hidden() {}

// Called is used from app, which calls its Run.
type Called struct{}

// Run is called from app on a Called: not reported.
func (Called) Run() {}

// Idle is used from app, which never calls its Run.
type Idle struct{}

// Run is selected nowhere on an Idle, only on a Called, whose Run shares
// its name: reported.
func (Idle) Run() {}
