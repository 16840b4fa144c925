module bonnroute/bench

go 1.22

require bonnroute v0.0.0

replace bonnroute => ../
