module wattdb/bench

go 1.24

require wattdb v0.0.0

replace wattdb => ../
