module github.com/exodb/fieldrepl/bench

go 1.22

require github.com/exodb/fieldrepl v0.0.0

replace github.com/exodb/fieldrepl => ../
