module github.com/xatu-go/xatu/bench

go 1.22

require github.com/xatu-go/xatu v0.0.0

replace github.com/xatu-go/xatu => ../
