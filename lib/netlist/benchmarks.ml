(* The c17 netlist is reproduced from the ISCAS-85 benchmark set; it is
   six NAND2 gates and appears in virtually every testing textbook. *)
let c17_bench =
  "# c17 (ISCAS-85)\n\
   INPUT(G1)\n\
   INPUT(G2)\n\
   INPUT(G3)\n\
   INPUT(G6)\n\
   INPUT(G7)\n\
   OUTPUT(G22)\n\
   OUTPUT(G23)\n\
   G10 = NAND(G1, G3)\n\
   G11 = NAND(G3, G6)\n\
   G16 = NAND(G2, G11)\n\
   G19 = NAND(G11, G7)\n\
   G22 = NAND(G10, G16)\n\
   G23 = NAND(G16, G19)\n"

let c17 () = Bench_format.parse_string ~name:"c17" c17_bench

(* Suite entries: (name, ISCAS-85 analogue it stands in for, generator).
   Sizes are chosen to bracket the ISCAS-85 gate counts. *)
let generators : (string * (unit -> Circuit.t)) list =
  [
    ("c17", c17);
    ("par64", fun () -> Generators.parity_tree 64);
    ("add32", fun () -> Generators.ripple_adder 32);     (* ~ c432 *)
    ("dec6", fun () -> Generators.decoder 6);
    ("csel32", fun () -> Generators.carry_select_adder 32 4); (* ~ c880 *)
    ("bshift32", fun () -> Generators.barrel_shifter 32);     (* ~ c499 *)
    ("mult8", fun () -> Generators.array_multiplier 8);  (* ~ c1355 *)
    ("alu32", fun () -> Generators.alu 32);              (* ~ c1908 *)
    ("rand1200", fun () -> Generators.random_dag ~seed:42 ~gates:1200 ~inputs:64 ~outputs:32); (* ~ c2670 *)
    ("rand1700", fun () -> Generators.random_dag ~seed:43 ~gates:1700 ~inputs:50 ~outputs:22); (* ~ c3540 *)
    ("rand2300", fun () -> Generators.random_dag ~seed:44 ~gates:2300 ~inputs:178 ~outputs:123); (* ~ c5315 *)
    ("mult16", fun () -> Generators.array_multiplier 16); (* ~ c6288 *)
    ("rand3500", fun () -> Generators.random_dag ~seed:45 ~gates:3500 ~inputs:207 ~outputs:108); (* ~ c7552 *)
  ]

(* Scaling workloads.  Kept out of [generators] (and hence [names] and
   the suite selectors) on purpose: they are one to two orders of
   magnitude bigger than the ISCAS-85 bracket and only the scaling bench
   and explicit CLI requests should ever instantiate them. *)
let large_generators : (string * (unit -> Circuit.t)) list =
  [
    ("rand30k", Generators.rand30k);
    ("rand100k", Generators.rand100k);
    ( "spipe30k",
      fun () ->
        (* 10 register stages × 128 bits × 24 layers = 30 720 gates of
           wide, shallow sequential logic (ISCAS89-style), loaded through
           the register cut. *)
        Bench_format.parse_string ~sequential:`Cut ~name:"spipe30k"
          (Generators.seq_pipeline_bench ~stages:10 ~width:128 ~layers:24) );
  ]

let names = List.map fst generators
let large_names = List.map fst large_generators

let by_name n =
  (match List.assoc_opt n generators with
  | Some _ as g -> g
  | None -> List.assoc_opt n large_generators)
  |> Option.map (fun gen -> gen ())

let instantiate keep =
  List.filter_map
    (fun (n, gen) -> if keep n then Some (n, gen ()) else None)
    generators

let small () = instantiate (fun n -> List.mem n [ "c17"; "par64"; "add32"; "dec6" ])

let full () = instantiate (fun _ -> true)
