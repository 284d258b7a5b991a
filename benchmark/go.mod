module op2hpx/benchmark

go 1.24

require op2hpx v0.0.0

replace op2hpx => ../
