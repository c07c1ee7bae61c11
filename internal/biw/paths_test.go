package biw

import (
	"math"
	"sync"
	"testing"
)

// onvoPathBits pins math.Float64bits of PathLossDB's loss and path
// length for every ordered pair of distinct ONVO L60 elements. The
// values were captured from the map-keyed single-pair Dijkstra that
// the all-pairs table replaced, so they hold the table to the old
// channel bit for bit.
var onvoPathBits = []struct {
	a, b       string
	loss, dist uint64
}{
	{"b-pillar-l", "b-pillar-r", 0x40494eba5dbc65e4, 0x400c7a58bd0c6f84},
	{"b-pillar-l", "c-pillar-l", 0x4049b358c0560054, 0x4010393700bf1d2e},
	{"b-pillar-l", "c-pillar-r", 0x4049b358c0560054, 0x4010393700bf1d2e},
	{"b-pillar-l", "cargo-floor", 0x404a2726fe957087, 0x4010ac56a784fa0f},
	{"b-pillar-l", "dashboard", 0x404685084c1ec9c0, 0x4006c1086ec1b990},
	{"b-pillar-l", "front-floor-l", 0x404321bdc576065e, 0x3ffcba2514191c2a},
	{"b-pillar-l", "front-floor-r", 0x4045ccfed2d7f860, 0x4006e46c8ca36c58},
	{"b-pillar-l", "long-beam-l", 0x4047edc641ce4fe6, 0x400be7e2eb94f155},
	{"b-pillar-l", "long-beam-r", 0x4047edc641ce4fe6, 0x400be7e2eb94f155},
	{"b-pillar-l", "middle-floor", 0x40431a9062116625, 0x3ffc7a58bd0c6f84},
	{"b-pillar-l", "rear-floor", 0x4045a7f08c0a5af0, 0x40063fbb51f52262},
	{"b-pillar-l", "rocker-l", 0x40406262aa8597e4, 0x3fea634bd77fe1a5},
	{"b-pillar-l", "rocker-r", 0x4045d2be199d3466, 0x4005e185c72c771b},
	{"b-pillar-l", "threshold", 0x404a6a2763f029f9, 0x4011cf73fa8779b8},
	{"b-pillar-r", "b-pillar-l", 0x40494eba5dbc65e4, 0x400c7a58bd0c6f84},
	{"b-pillar-r", "c-pillar-l", 0x4049b358c0560054, 0x4010393700bf1d2e},
	{"b-pillar-r", "c-pillar-r", 0x4049b358c0560054, 0x4010393700bf1d2e},
	{"b-pillar-r", "cargo-floor", 0x404a2726fe957087, 0x4010ac56a784fa0f},
	{"b-pillar-r", "dashboard", 0x404685084c1ec9c0, 0x4006c1086ec1b990},
	{"b-pillar-r", "front-floor-l", 0x4045ccfed2d7f860, 0x4006e46c8ca36c58},
	{"b-pillar-r", "front-floor-r", 0x404321bdc576065e, 0x3ffcba2514191c2a},
	{"b-pillar-r", "long-beam-l", 0x4047edc641ce4fe6, 0x400be7e2eb94f155},
	{"b-pillar-r", "long-beam-r", 0x4047edc641ce4fe6, 0x400be7e2eb94f155},
	{"b-pillar-r", "middle-floor", 0x40431a9062116625, 0x3ffc7a58bd0c6f84},
	{"b-pillar-r", "rear-floor", 0x4045a7f08c0a5af0, 0x40063fbb51f52262},
	{"b-pillar-r", "rocker-l", 0x4045d2be199d3466, 0x4005e185c72c771b},
	{"b-pillar-r", "rocker-r", 0x40406262aa8597e4, 0x3fea634bd77fe1a5},
	{"b-pillar-r", "threshold", 0x404a6a2763f029f9, 0x4011cf73fa8779b8},
	{"c-pillar-l", "b-pillar-l", 0x4049b358c0560055, 0x4010393700bf1d2e},
	{"c-pillar-l", "b-pillar-r", 0x4049b358c0560055, 0x4010393700bf1d2e},
	{"c-pillar-l", "c-pillar-r", 0x4044fd36cefdb131, 0x400465655f122ff6},
	{"c-pillar-l", "cargo-floor", 0x404571050d3d2163, 0x40054ba4ac9de9b7},
	{"c-pillar-l", "dashboard", 0x404994e7bc1a5634, 0x4011a03bdae53155},
	{"c-pillar-l", "front-floor-l", 0x4046319d357192d2, 0x400adc81d1153730},
	{"c-pillar-l", "front-floor-r", 0x4046319d357192d2, 0x400adc81d1153730},
	{"c-pillar-l", "long-beam-l", 0x404337a4507600c2, 0x3fffb5b49251cddc},
	{"c-pillar-l", "long-beam-r", 0x404337a4507600c2, 0x3fffb5b49251cddc},
	{"c-pillar-l", "middle-floor", 0x40437f2ec4ab0096, 0x40023541a2f8029a},
	{"c-pillar-l", "rear-floor", 0x4040f1ce9ab20bcc, 0x3ff465655f122ff6},
	{"c-pillar-l", "rocker-l", 0x4046375c7c36ced7, 0x4009d99b0b9e41f3},
	{"c-pillar-l", "rocker-r", 0x4046375c7c36ced7, 0x4009d99b0b9e41f3},
	{"c-pillar-l", "threshold", 0x4045b4057297dad5, 0x400791df52a2e908},
	{"c-pillar-r", "b-pillar-l", 0x4049b358c0560055, 0x4010393700bf1d2e},
	{"c-pillar-r", "b-pillar-r", 0x4049b358c0560055, 0x4010393700bf1d2e},
	{"c-pillar-r", "c-pillar-l", 0x4044fd36cefdb131, 0x400465655f122ff6},
	{"c-pillar-r", "cargo-floor", 0x404571050d3d2163, 0x40054ba4ac9de9b7},
	{"c-pillar-r", "dashboard", 0x404994e7bc1a5634, 0x4011a03bdae53155},
	{"c-pillar-r", "front-floor-l", 0x4046319d357192d2, 0x400adc81d1153730},
	{"c-pillar-r", "front-floor-r", 0x4046319d357192d2, 0x400adc81d1153730},
	{"c-pillar-r", "long-beam-l", 0x404337a4507600c2, 0x3fffb5b49251cddc},
	{"c-pillar-r", "long-beam-r", 0x404337a4507600c2, 0x3fffb5b49251cddc},
	{"c-pillar-r", "middle-floor", 0x40437f2ec4ab0096, 0x40023541a2f8029a},
	{"c-pillar-r", "rear-floor", 0x4040f1ce9ab20bcc, 0x3ff465655f122ff6},
	{"c-pillar-r", "rocker-l", 0x4046375c7c36ced7, 0x4009d99b0b9e41f3},
	{"c-pillar-r", "rocker-r", 0x4046375c7c36ced7, 0x4009d99b0b9e41f3},
	{"c-pillar-r", "threshold", 0x4045b4057297dad5, 0x400791df52a2e908},
	{"cargo-floor", "b-pillar-l", 0x404a2726fe957087, 0x4010ac56a784fa0f},
	{"cargo-floor", "b-pillar-r", 0x404a2726fe957087, 0x4010ac56a784fa0f},
	{"cargo-floor", "c-pillar-l", 0x404571050d3d2163, 0x40054ba4ac9de9b7},
	{"cargo-floor", "c-pillar-r", 0x404571050d3d2163, 0x40054ba4ac9de9b7},
	{"cargo-floor", "dashboard", 0x404a08b5fa59c666, 0x4012135b81ab0e36},
	{"cargo-floor", "front-floor-l", 0x4046a56b73b10304, 0x400bc2c11ea0f0f2},
	{"cargo-floor", "front-floor-r", 0x4046a56b73b10304, 0x400bc2c11ea0f0f2},
	{"cargo-floor", "long-beam-l", 0x403e3f8e465b0e0e, 0x3fe5c3298dd40b24},
	{"cargo-floor", "long-beam-r", 0x403e3f8e465b0e0e, 0x3fe5c3298dd40b24},
	{"cargo-floor", "middle-floor", 0x4043f2fd02ea70c8, 0x40031b80f083bc5c},
	{"cargo-floor", "rear-floor", 0x4041659cd8f17bfe, 0x3ff631e3fa29a378},
	{"cargo-floor", "rocker-l", 0x4046ab2aba763f09, 0x400abfda5929fbb5},
	{"cargo-floor", "rocker-r", 0x4046ab2aba763f09, 0x400abfda5929fbb5},
	{"cargo-floor", "threshold", 0x403d9c4478803bfa, 0x3fd74bddb392632a},
	{"dashboard", "b-pillar-l", 0x404685084c1ec9c0, 0x4006c1086ec1b98f},
	{"dashboard", "b-pillar-r", 0x404685084c1ec9c0, 0x4006c1086ec1b98f},
	{"dashboard", "c-pillar-l", 0x404994e7bc1a5634, 0x4011a03bdae53156},
	{"dashboard", "c-pillar-r", 0x404994e7bc1a5634, 0x4011a03bdae53156},
	{"dashboard", "cargo-floor", 0x404a08b5fa59c665, 0x4012135b81ab0e36},
	{"dashboard", "front-floor-l", 0x404049b0ed0f29c8, 0x3ff0c7ebc96a56f5},
	{"dashboard", "front-floor-r", 0x404049b0ed0f29c8, 0x3ff0c7ebc96a56f5},
	{"dashboard", "long-beam-l", 0x4047cf553d92a5c4, 0x400eb5ec9fe119a3},
	{"dashboard", "long-beam-r", 0x4047cf553d92a5c4, 0x400eb5ec9fe119a3},
	{"dashboard", "middle-floor", 0x4042fc1f5dd5bc04, 0x40010b3612d26010},
	{"dashboard", "rear-floor", 0x4045897f87ceb0ce, 0x40090dc506414ab0},
	{"dashboard", "rocker-l", 0x4043090c07ff9842, 0x4000283578e1c126},
	{"dashboard", "rocker-r", 0x4043090c07ff9842, 0x4000283578e1c126},
	{"dashboard", "threshold", 0x404a4bb65fb47fd7, 0x40133678d4ad8ddf},
	{"front-floor-l", "b-pillar-l", 0x404321bdc576065e, 0x3ffcba2514191c2a},
	{"front-floor-l", "b-pillar-r", 0x4045ccfed2d7f860, 0x4006e46c8ca36c57},
	{"front-floor-l", "c-pillar-l", 0x4046319d357192d2, 0x400adc81d1153730},
	{"front-floor-l", "c-pillar-r", 0x4046319d357192d2, 0x400adc81d1153730},
	{"front-floor-l", "cargo-floor", 0x4046a56b73b10303, 0x400bc2c11ea0f0f1},
	{"front-floor-l", "dashboard", 0x404049b0ed0f29c8, 0x3ff0c7ebc96a56f5},
	{"front-floor-l", "front-floor-r", 0x40424b4347f38add, 0x40014e805c3a692b},
	{"front-floor-l", "long-beam-l", 0x40446c0ab6e9e263, 0x400651f6bb2bee28},
	{"front-floor-l", "long-beam-r", 0x40446c0ab6e9e263, 0x400651f6bb2bee28},
	{"front-floor-l", "middle-floor", 0x403f31a9ae59f144, 0x3ff14e805c3a692b},
	{"front-floor-l", "rear-floor", 0x404226350125ed6c, 0x4000a9cf218c1f35},
	{"front-floor-l", "rocker-l", 0x403f4b8302ada9c1, 0x3fef10fe50b256b0},
	{"front-floor-l", "rocker-r", 0x404251028eb8c6e2, 0x40004b9996c373ee},
	{"front-floor-l", "threshold", 0x4046e86bd90bbc76, 0x400e08fbc4a5f042},
	{"front-floor-r", "b-pillar-l", 0x4045ccfed2d7f860, 0x4006e46c8ca36c57},
	{"front-floor-r", "b-pillar-r", 0x404321bdc576065e, 0x3ffcba2514191c2a},
	{"front-floor-r", "c-pillar-l", 0x4046319d357192d2, 0x400adc81d1153730},
	{"front-floor-r", "c-pillar-r", 0x4046319d357192d2, 0x400adc81d1153730},
	{"front-floor-r", "cargo-floor", 0x4046a56b73b10303, 0x400bc2c11ea0f0f1},
	{"front-floor-r", "dashboard", 0x404049b0ed0f29c8, 0x3ff0c7ebc96a56f5},
	{"front-floor-r", "front-floor-l", 0x40424b4347f38add, 0x40014e805c3a692b},
	{"front-floor-r", "long-beam-l", 0x40446c0ab6e9e263, 0x400651f6bb2bee28},
	{"front-floor-r", "long-beam-r", 0x40446c0ab6e9e263, 0x400651f6bb2bee28},
	{"front-floor-r", "middle-floor", 0x403f31a9ae59f144, 0x3ff14e805c3a692b},
	{"front-floor-r", "rear-floor", 0x404226350125ed6c, 0x4000a9cf218c1f35},
	{"front-floor-r", "rocker-l", 0x404251028eb8c6e2, 0x40004b9996c373ee},
	{"front-floor-r", "rocker-r", 0x403f4b8302ada9c1, 0x3fef10fe50b256b0},
	{"front-floor-r", "threshold", 0x4046e86bd90bbc76, 0x400e08fbc4a5f042},
	{"long-beam-l", "b-pillar-l", 0x4047edc641ce4fe6, 0x400be7e2eb94f155},
	{"long-beam-l", "b-pillar-r", 0x4047edc641ce4fe6, 0x400be7e2eb94f155},
	{"long-beam-l", "c-pillar-l", 0x404337a4507600c2, 0x3fffb5b49251cddc},
	{"long-beam-l", "c-pillar-r", 0x404337a4507600c2, 0x3fffb5b49251cddc},
	{"long-beam-l", "cargo-floor", 0x403e3f8e465b0e0e, 0x3fe5c3298dd40b24},
	{"long-beam-l", "dashboard", 0x4047cf553d92a5c4, 0x400eb5ec9fe119a2},
	{"long-beam-l", "front-floor-l", 0x40446c0ab6e9e263, 0x400651f6bb2bee28},
	{"long-beam-l", "front-floor-r", 0x40446c0ab6e9e263, 0x400651f6bb2bee28},
	{"long-beam-l", "long-beam-r", 0x40415927dff4a7a8, 0x3ff5c3298dd40b24},
	{"long-beam-l", "middle-floor", 0x4041b99c46235028, 0x3ffb556d1a1d7326},
	{"long-beam-l", "rear-floor", 0x403e58783854b6ba, 0x3fe6a09e667f3bcd},
	{"long-beam-l", "rocker-l", 0x404471c9fdaf1e68, 0x40054f0ff5b4f8ec},
	{"long-beam-l", "rocker-r", 0x404471c9fdaf1e68, 0x40054f0ff5b4f8ec},
	{"long-beam-l", "threshold", 0x403ec58f111080f2, 0x3feedc1425e80869},
	{"long-beam-r", "b-pillar-l", 0x4047edc641ce4fe6, 0x400be7e2eb94f155},
	{"long-beam-r", "b-pillar-r", 0x4047edc641ce4fe6, 0x400be7e2eb94f155},
	{"long-beam-r", "c-pillar-l", 0x404337a4507600c2, 0x3fffb5b49251cddc},
	{"long-beam-r", "c-pillar-r", 0x404337a4507600c2, 0x3fffb5b49251cddc},
	{"long-beam-r", "cargo-floor", 0x403e3f8e465b0e0e, 0x3fe5c3298dd40b24},
	{"long-beam-r", "dashboard", 0x4047cf553d92a5c4, 0x400eb5ec9fe119a2},
	{"long-beam-r", "front-floor-l", 0x40446c0ab6e9e263, 0x400651f6bb2bee28},
	{"long-beam-r", "front-floor-r", 0x40446c0ab6e9e263, 0x400651f6bb2bee28},
	{"long-beam-r", "long-beam-l", 0x40415927dff4a7a8, 0x3ff5c3298dd40b24},
	{"long-beam-r", "middle-floor", 0x4041b99c46235028, 0x3ffb556d1a1d7326},
	{"long-beam-r", "rear-floor", 0x403e58783854b6ba, 0x3fe6a09e667f3bcd},
	{"long-beam-r", "rocker-l", 0x404471c9fdaf1e68, 0x40054f0ff5b4f8ec},
	{"long-beam-r", "rocker-r", 0x404471c9fdaf1e68, 0x40054f0ff5b4f8ec},
	{"long-beam-r", "threshold", 0x403ec58f111080f2, 0x3feedc1425e80869},
	{"middle-floor", "b-pillar-l", 0x40431a9062116625, 0x3ffc7a58bd0c6f84},
	{"middle-floor", "b-pillar-r", 0x40431a9062116625, 0x3ffc7a58bd0c6f84},
	{"middle-floor", "c-pillar-l", 0x40437f2ec4ab0096, 0x40023541a2f8029a},
	{"middle-floor", "c-pillar-r", 0x40437f2ec4ab0096, 0x40023541a2f8029a},
	{"middle-floor", "cargo-floor", 0x4043f2fd02ea70c8, 0x40031b80f083bc5c},
	{"middle-floor", "dashboard", 0x4042fc1f5dd5bc04, 0x40010b3612d26010},
	{"middle-floor", "front-floor-l", 0x403f31a9ae59f144, 0x3ff14e805c3a692b},
	{"middle-floor", "front-floor-r", 0x403f31a9ae59f144, 0x3ff14e805c3a692b},
	{"middle-floor", "long-beam-l", 0x4041b99c46235028, 0x3ffb556d1a1d7326},
	{"middle-floor", "long-beam-r", 0x4041b99c46235028, 0x3ffb556d1a1d7326},
	{"middle-floor", "rear-floor", 0x403ee78d20beb662, 0x3ff0051de6ddd53f},
	{"middle-floor", "rocker-l", 0x403f3d283be4694e, 0x3fee9165a298fd64},
	{"middle-floor", "rocker-r", 0x403f3d283be4694e, 0x3fee9165a298fd64},
	{"middle-floor", "threshold", 0x404435fd68452a3a, 0x400561bb9688bbad},
	{"rear-floor", "b-pillar-l", 0x4045a7f08c0a5af0, 0x40063fbb51f52262},
	{"rear-floor", "b-pillar-r", 0x4045a7f08c0a5af0, 0x40063fbb51f52262},
	{"rear-floor", "c-pillar-l", 0x4040f1ce9ab20bcc, 0x3ff465655f122ff6},
	{"rear-floor", "c-pillar-r", 0x4040f1ce9ab20bcc, 0x3ff465655f122ff6},
	{"rear-floor", "cargo-floor", 0x4041659cd8f17bfe, 0x3ff631e3fa29a378},
	{"rear-floor", "dashboard", 0x4045897f87ceb0ce, 0x40090dc506414ab0},
	{"rear-floor", "front-floor-l", 0x404226350125ed6c, 0x4000a9cf218c1f35},
	{"rear-floor", "front-floor-r", 0x404226350125ed6c, 0x4000a9cf218c1f35},
	{"rear-floor", "long-beam-l", 0x403e58783854b6ba, 0x3fe6a09e667f3bcd},
	{"rear-floor", "long-beam-r", 0x403e58783854b6ba, 0x3fe6a09e667f3bcd},
	{"rear-floor", "middle-floor", 0x403ee78d20beb662, 0x3ff0051de6ddd53f},
	{"rear-floor", "rocker-l", 0x40422bf447eb2972, 0x3fff4dd0b82a53f1},
	{"rear-floor", "rocker-r", 0x40422bf447eb2972, 0x3fff4dd0b82a53f1},
	{"rear-floor", "threshold", 0x4041a89d3e4c3570, 0x3ffabe594633a21b},
	{"rocker-l", "b-pillar-l", 0x40406262aa8597e4, 0x3fea634bd77fe1a5},
	{"rocker-l", "b-pillar-r", 0x4045d2be199d3466, 0x4005e185c72c771b},
	{"rocker-l", "c-pillar-l", 0x4046375c7c36ced6, 0x4009d99b0b9e41f4},
	{"rocker-l", "c-pillar-r", 0x4046375c7c36ced6, 0x4009d99b0b9e41f4},
	{"rocker-l", "cargo-floor", 0x4046ab2aba763f08, 0x400abfda5929fbb5},
	{"rocker-l", "dashboard", 0x4043090c07ff9842, 0x4000283578e1c126},
	{"rocker-l", "front-floor-l", 0x403f4b8302ada9c1, 0x3fef10fe50b256b0},
	{"rocker-l", "front-floor-r", 0x404251028eb8c6e2, 0x40004b9996c373ee},
	{"rocker-l", "long-beam-l", 0x404471c9fdaf1e68, 0x40054f0ff5b4f8ec},
	{"rocker-l", "long-beam-r", 0x404471c9fdaf1e68, 0x40054f0ff5b4f8ec},
	{"rocker-l", "middle-floor", 0x403f3d283be4694e, 0x3fee9165a298fd64},
	{"rocker-l", "rear-floor", 0x40422bf447eb2972, 0x3fff4dd0b82a53f1},
	{"rocker-l", "rocker-r", 0x404256c1d57e02e8, 0x3ffe9165a298fd64},
	{"rocker-l", "threshold", 0x4046ee2b1fd0f87b, 0x400d0614ff2efb06},
	{"rocker-r", "b-pillar-l", 0x4045d2be199d3466, 0x4005e185c72c771b},
	{"rocker-r", "b-pillar-r", 0x40406262aa8597e4, 0x3fea634bd77fe1a5},
	{"rocker-r", "c-pillar-l", 0x4046375c7c36ced6, 0x4009d99b0b9e41f4},
	{"rocker-r", "c-pillar-r", 0x4046375c7c36ced6, 0x4009d99b0b9e41f4},
	{"rocker-r", "cargo-floor", 0x4046ab2aba763f08, 0x400abfda5929fbb5},
	{"rocker-r", "dashboard", 0x4043090c07ff9842, 0x4000283578e1c126},
	{"rocker-r", "front-floor-l", 0x404251028eb8c6e2, 0x40004b9996c373ee},
	{"rocker-r", "front-floor-r", 0x403f4b8302ada9c1, 0x3fef10fe50b256b0},
	{"rocker-r", "long-beam-l", 0x404471c9fdaf1e68, 0x40054f0ff5b4f8ec},
	{"rocker-r", "long-beam-r", 0x404471c9fdaf1e68, 0x40054f0ff5b4f8ec},
	{"rocker-r", "middle-floor", 0x403f3d283be4694e, 0x3fee9165a298fd64},
	{"rocker-r", "rear-floor", 0x40422bf447eb2972, 0x3fff4dd0b82a53f1},
	{"rocker-r", "rocker-l", 0x404256c1d57e02e8, 0x3ffe9165a298fd64},
	{"rocker-r", "threshold", 0x4046ee2b1fd0f87b, 0x400d0614ff2efb06},
	{"threshold", "b-pillar-l", 0x404a6a2763f029f9, 0x4011cf73fa8779b8},
	{"threshold", "b-pillar-r", 0x404a6a2763f029f9, 0x4011cf73fa8779b8},
	{"threshold", "c-pillar-l", 0x4045b4057297dad6, 0x400791df52a2e908},
	{"threshold", "c-pillar-r", 0x4045b4057297dad6, 0x400791df52a2e908},
	{"threshold", "cargo-floor", 0x403d9c4478803bfa, 0x3fd74bddb392632a},
	{"threshold", "dashboard", 0x404a4bb65fb47fd8, 0x40133678d4ad8dde},
	{"threshold", "front-floor-l", 0x4046e86bd90bbc76, 0x400e08fbc4a5f042},
	{"threshold", "front-floor-r", 0x4046e86bd90bbc76, 0x400e08fbc4a5f042},
	{"threshold", "long-beam-l", 0x403ec58f111080f2, 0x3feedc1425e80869},
	{"threshold", "long-beam-r", 0x403ec58f111080f2, 0x3feedc1425e80869},
	{"threshold", "middle-floor", 0x404435fd68452a3a, 0x400561bb9688bbad},
	{"threshold", "rear-floor", 0x4041a89d3e4c3570, 0x3ffabe594633a21b},
	{"threshold", "rocker-l", 0x4046ee2b1fd0f87b, 0x400d0614ff2efb06},
	{"threshold", "rocker-r", 0x4046ee2b1fd0f87b, 0x400d0614ff2efb06},
}

// onvoTagBits pins TagLossDB and TagDelay for tags 1-12, captured
// alongside onvoPathBits.
var onvoTagBits = []struct {
	id          int
	loss, delay uint64
}{
	{1, 0x4042fc1f5dd5bc04, 0x3f3b6083d525bf73},
	{2, 0x403f31a9ae59f144, 0x3f2bcc99fa57ccde},
	{3, 0x403fa0413ba9d07f, 0x3f2bcc99fa57ccde},
	{4, 0x40431a9062116625, 0x3f36df2623c753bd},
	{5, 0x403f3d283be4694e, 0x3f288cde2d0dd88f},
	{6, 0x403fc765ac884058, 0x3f288cde2d0dd88f},
	{7, 0x404348a4dcf2add3, 0x3f36df2623c753bd},
	{8, 0x403c3381d7dbf488, 0x0000000000000000},
	{9, 0x4041b99c46235028, 0x3f35f3e4c677a08c},
	{10, 0x4041de79753defe6, 0x3f35f3e4c677a08c},
	{11, 0x40448671bf54efc2, 0x3f3eb119003966c7},
	{12, 0x404435fd68452a3a, 0x3f412c28a10e7162},
}

func TestPathTableGoldenBits(t *testing.T) {
	d := NewONVOL60()
	s := d.Structure
	if n := len(s.Elements()); n*(n-1) != len(onvoPathBits) {
		t.Fatalf("%d elements give %d ordered pairs, golden has %d", n, n*(n-1), len(onvoPathBits))
	}
	for _, g := range onvoPathBits {
		loss, dist, err := s.PathLossDB(g.a, g.b)
		if err != nil {
			t.Fatalf("%s->%s: %v", g.a, g.b, err)
		}
		if math.Float64bits(loss) != g.loss || math.Float64bits(dist) != g.dist {
			t.Errorf("%s->%s: loss %#016x dist %#016x, want %#016x %#016x",
				g.a, g.b, math.Float64bits(loss), math.Float64bits(dist), g.loss, g.dist)
		}
	}
	checkTagBits(t, d)
}

// checkTagBits compares TagLossDB and TagDelay of every tag with the
// pinned bits. It is safe to call from several goroutines.
func checkTagBits(t *testing.T, d *Deployment) {
	t.Helper()
	for _, g := range onvoTagBits {
		loss, err := d.TagLossDB(g.id)
		if err != nil {
			t.Errorf("tag %d: %v", g.id, err)
			continue
		}
		delay, err := d.TagDelay(g.id)
		if err != nil {
			t.Errorf("tag %d delay: %v", g.id, err)
			continue
		}
		if math.Float64bits(loss) != g.loss || math.Float64bits(delay) != g.delay {
			t.Errorf("tag %d: loss %#016x delay %#016x, want %#016x %#016x",
				g.id, math.Float64bits(loss), math.Float64bits(delay), g.loss, g.delay)
		}
	}
}

// tieStructure has two paths from "a" to "z" with the same loss, 6 dB,
// and different lengths. All positions are axis-aligned and all
// constants are small binary fractions, so every sum is exact. The
// short path runs a -> near -> z (2 m); the long path runs
// a -> q -> far -> z (6 m). near and far both reach 4 dB, so the
// minimum-loss scan meets them in a tie, and whichever is extracted
// first sets z.
func tieStructure(near, far string) *Structure {
	s := NewStructure(1.0, 0.0)
	s.AddElement("a", KindFloorPanel, Position{0, 0, 0})
	s.AddElement(near, KindFloorPanel, Position{1, 0, 0})
	s.AddElement("q", KindFloorPanel, Position{0, 2, 0})
	s.AddElement(far, KindFloorPanel, Position{2, 2, 0})
	s.AddElement("z", KindFloorPanel, Position{2, 0, 0})
	for _, j := range []struct {
		a, b string
		loss float64
	}{
		{"a", near, 3}, {near, "z", 1}, // 0+1+3 = 4, then 4+1+1 = 6
		{"a", "q", 0}, {"q", far, 0}, {far, "z", 0}, // 2, 4, then 4+2+0 = 6
	} {
		if err := s.Connect(j.a, j.b, j.loss); err != nil {
			panic(err)
		}
	}
	return s
}

// The lower element index (Elements() order) wins a tie, on every call
// and in every fresh build. With the short path's midpoint named "p1"
// it wins; renamed "p2" it loses to the long path through "p1".
func TestPathLossTieLowerIndexWins(t *testing.T) {
	for _, tc := range []struct {
		near, far string
		wantDist  float64
	}{
		{"p1", "p2", 2},
		{"p2", "p1", 6},
	} {
		for build := 0; build < 20; build++ {
			s := tieStructure(tc.near, tc.far)
			for call := 0; call < 5; call++ {
				loss, dist, err := s.PathLossDB("a", "z")
				if err != nil {
					t.Fatal(err)
				}
				if loss != 6 || dist != tc.wantDist {
					t.Fatalf("near=%s far=%s build %d call %d: loss %v dist %v, want 6 and %v",
						tc.near, tc.far, build, call, loss, dist, tc.wantDist)
				}
			}
		}
	}
}

// AddElement, Connect and a new attenuation constant after a query
// all change the next answer.
func TestPathTableRebuildsAfterMutation(t *testing.T) {
	s := tieStructure("p1", "p2")
	if _, _, err := s.PathLossDB("a", "z"); err != nil {
		t.Fatal(err)
	}

	_, _, err := s.PathLossDB("a", "new")
	if err == nil || err.Error() != `biw: unknown element "new"` {
		t.Fatalf("before AddElement: err = %v", err)
	}
	s.AddElement("new", KindBeam, Position{0, 0, 1})
	_, _, err = s.PathLossDB("a", "new")
	if err == nil || err.Error() != `biw: no acoustic path from "a" to "new"` {
		t.Fatalf("after AddElement: err = %v", err)
	}

	// A direct a-z junction beats both 6 dB paths: 0 + 2*1 + 0.5.
	if err := s.Connect("a", "z", 0.5); err != nil {
		t.Fatal(err)
	}
	loss, dist, err := s.PathLossDB("a", "z")
	if err != nil {
		t.Fatal(err)
	}
	if loss != 2.5 || dist != 2 {
		t.Errorf("after Connect: loss %v dist %v, want 2.5 and 2", loss, dist)
	}

	s.AttenuationDBPerMeter = 2
	if loss, _, _ = s.PathLossDB("a", "z"); loss != 4.5 {
		t.Errorf("after attenuation change: loss %v, want 4.5", loss)
	}
}

// Both error messages are unchanged, and each operand is checked.
func TestPathTableErrors(t *testing.T) {
	s := newTestStructure()
	s.AddElement("island", KindBeam, Position{9, 9, 9})
	for _, tc := range []struct {
		a, b, want string
	}{
		{"nope", "a", `biw: unknown element "nope"`},
		{"a", "nope", `biw: unknown element "nope"`},
		{"nope", "gone", `biw: unknown element "nope"`},
		{"a", "island", `biw: no acoustic path from "a" to "island"`},
		{"island", "a", `biw: no acoustic path from "island" to "a"`},
	} {
		if _, _, err := s.PathLossDB(tc.a, tc.b); err == nil || err.Error() != tc.want {
			t.Errorf("PathLossDB(%q, %q): err = %v, want %q", tc.a, tc.b, err, tc.want)
		}
	}
	if _, _, err := s.PathLossDB("island", "island"); err != nil {
		t.Errorf("island to itself: %v", err)
	}
}

// Many goroutines make their first channel queries on one fresh
// deployment at the same moment, racing the lazy table build; under
// -race this checks the build is published safely.
func TestPathTableConcurrentFirstUse(t *testing.T) {
	d := NewONVOL60()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			pair := onvoPathBits[g*len(onvoPathBits)/16]
			loss, dist, err := d.Structure.PathLossDB(pair.a, pair.b)
			if err != nil || math.Float64bits(loss) != pair.loss || math.Float64bits(dist) != pair.dist {
				t.Errorf("%s->%s: loss %v dist %v err %v", pair.a, pair.b, loss, dist, err)
			}
			checkTagBits(t, d)
		}(g)
	}
	close(start)
	wg.Wait()
}

func TestTagLossNoAllocs(t *testing.T) {
	d := NewONVOL60()
	checkTagBits(t, d)
	allocs := testing.AllocsPerRun(100, func() {
		for id := 1; id <= d.NumTags(); id++ {
			if _, err := d.TagLossDB(id); err != nil {
				t.Fatal(err)
			}
			if _, err := d.TagDelay(id); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("TagLossDB/TagDelay allocate %v times per pass, want 0", allocs)
	}
}
