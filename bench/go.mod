module expfinder/bench

go 1.24

require expfinder v0.0.0

replace expfinder => ../
