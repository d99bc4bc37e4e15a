// Package workload builds the workloads of the paper's evaluation: the
// Zama Deep-NN models (NN-20/50/100) used in Fig 7, and the encrypted
// inference circuit strixbench -infer serves. A workload is expressed as
// a sequence of dependent layers, each containing a number of independent
// PBS(+KS) operations — exactly the computational-graph abstraction the
// paper's custom simulator uses (§VI-B).
package workload
