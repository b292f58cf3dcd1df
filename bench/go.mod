module anyopt/bench

go 1.22

require anyopt v0.0.0

replace anyopt => ../
