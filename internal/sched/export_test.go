package sched

// PlanUnchecked is Compile without the noise rule, for the golden plan
// tests, which pin plans the rule refuses at their set as well.
var PlanUnchecked = plan
