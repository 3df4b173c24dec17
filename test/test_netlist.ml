open Sl_netlist

(* Reference integer evaluation of generated arithmetic circuits against
   the circuit simulator. *)

let bits_of_int width v = Array.init width (fun i -> (v lsr i) land 1 = 1)

let int_of_bits bits =
  Array.to_list bits
  |> List.mapi (fun i b -> if b then 1 lsl i else 0)
  |> List.fold_left ( + ) 0

(* ---------- Cell_kind ---------- *)

let test_kind_eval_truth_tables () =
  let open Cell_kind in
  let t = true and f = false in
  Alcotest.(check bool) "nand tt" true (eval Nand [| t; t |] = f);
  Alcotest.(check bool) "nand tf" true (eval Nand [| t; f |] = t);
  Alcotest.(check bool) "nor ff" true (eval Nor [| f; f |] = t);
  Alcotest.(check bool) "xor3" true (eval Xor [| t; t; t |] = t);
  Alcotest.(check bool) "xnor2" true (eval Xnor [| t; f |] = f);
  Alcotest.(check bool) "not" true (eval Not [| t |] = f);
  Alcotest.(check bool) "buf" true (eval Buf [| f |] = f);
  Alcotest.(check bool) "and3" true (eval And [| t; t; f |] = f);
  Alcotest.(check bool) "or3" true (eval Or [| f; f; t |] = t)

let test_kind_eval_bad_arity () =
  (match Cell_kind.eval Cell_kind.Not [| true; false |] with
  | _ -> Alcotest.fail "Not/2 should raise"
  | exception Invalid_argument _ -> ());
  match Cell_kind.eval Cell_kind.And [| true |] with
  | _ -> Alcotest.fail "And/1 should raise"
  | exception Invalid_argument _ -> ()

let test_kind_string_roundtrip () =
  List.iter
    (fun k ->
      match Cell_kind.of_string (Cell_kind.to_string k) with
      | Some k' -> Alcotest.(check bool) "roundtrip" true (Cell_kind.equal k k')
      | None -> Alcotest.failf "of_string failed for %s" (Cell_kind.to_string k))
    Cell_kind.all_cells

(* ---------- Circuit / Builder ---------- *)

let tiny_circuit () =
  let b = Circuit.Builder.create "tiny" in
  ignore (Circuit.Builder.add_input b "a");
  ignore (Circuit.Builder.add_input b "b");
  ignore (Circuit.Builder.add_gate b "n1" Cell_kind.Nand [ "a"; "b" ]);
  ignore (Circuit.Builder.add_gate b "o" Cell_kind.Not [ "n1" ]);
  Circuit.Builder.mark_output b "o";
  Circuit.Builder.build b

let test_builder_topological_invariant () =
  let c = tiny_circuit () in
  Array.iter
    (fun (g : Circuit.gate) ->
      Array.iter
        (fun f ->
          if f >= g.Circuit.id then
            Alcotest.failf "fanin %d not before gate %d" f g.Circuit.id)
        g.Circuit.fanin)
    c.Circuit.gates

let test_builder_forward_reference () =
  let b = Circuit.Builder.create "fwd" in
  ignore (Circuit.Builder.add_input b "a");
  (* gate references "later", defined afterwards *)
  ignore (Circuit.Builder.add_gate b "o" Cell_kind.Not [ "later" ]);
  ignore (Circuit.Builder.add_gate b "later" Cell_kind.Buf [ "a" ]);
  Circuit.Builder.mark_output b "o";
  let c = Circuit.Builder.build b in
  Alcotest.(check (array bool)) "inverter of buf" [| true |] (Circuit.eval c [| false |])

let test_builder_detects_cycle () =
  let b = Circuit.Builder.create "cyc" in
  ignore (Circuit.Builder.add_input b "a");
  ignore (Circuit.Builder.add_gate b "x" Cell_kind.Nand [ "a"; "y" ]);
  ignore (Circuit.Builder.add_gate b "y" Cell_kind.Nand [ "a"; "x" ]);
  Circuit.Builder.mark_output b "y";
  match Circuit.Builder.build b with
  | _ -> Alcotest.fail "cycle not detected"
  | exception Failure msg ->
    Alcotest.(check bool) "message mentions cycle" true
      (String.length msg > 0 && String.lowercase_ascii msg |> fun s ->
       String.length s > 0
       &&
       match String.index_opt s 'c' with
       | Some _ -> true
       | None -> false)

let test_builder_rejects_duplicates () =
  let b = Circuit.Builder.create "dup" in
  ignore (Circuit.Builder.add_input b "a");
  match Circuit.Builder.add_input b "a" with
  | _ -> Alcotest.fail "duplicate accepted"
  | exception Invalid_argument _ -> ()

let test_builder_dangling_net () =
  let b = Circuit.Builder.create "dangling" in
  ignore (Circuit.Builder.add_input b "a");
  ignore (Circuit.Builder.add_gate b "o" Cell_kind.Not [ "ghost" ]);
  Circuit.Builder.mark_output b "o";
  match Circuit.Builder.build b with
  | _ -> Alcotest.fail "dangling net accepted"
  | exception Failure _ -> ()

let test_circuit_eval_tiny () =
  let c = tiny_circuit () in
  (* o = not (nand a b) = a and b *)
  List.iter
    (fun (a, b) ->
      Alcotest.(check (array bool))
        (Printf.sprintf "and %b %b" a b)
        [| a && b |]
        (Circuit.eval c [| a; b |]))
    [ (false, false); (false, true); (true, false); (true, true) ]

let test_circuit_levels_and_cones () =
  let c = tiny_circuit () in
  Alcotest.(check int) "depth" 2 c.Circuit.depth;
  let a = c.Circuit.inputs.(0) in
  let cone = Circuit.fanout_cone c a in
  Alcotest.(check int) "fanout cone of input a covers both gates" 2 (Array.length cone);
  let o = c.Circuit.outputs.(0) in
  let fin = Circuit.fanin_cone c o in
  Alcotest.(check int) "fanin cone of output" 3 (Array.length fin)

let test_fanout_consistency () =
  let c = Benchmarks.c17 () in
  Array.iter
    (fun (g : Circuit.gate) ->
      Array.iter
        (fun f ->
          let driver = Circuit.gate c f in
          if not (Array.exists (fun x -> x = g.Circuit.id) driver.Circuit.fanout) then
            Alcotest.failf "fanout of %s misses %s" driver.Circuit.name g.Circuit.name)
        g.Circuit.fanin)
    c.Circuit.gates

(* ---------- bench format ---------- *)

let test_c17_structure () =
  let c = Benchmarks.c17 () in
  Alcotest.(check int) "cells" 6 (Circuit.num_cells c);
  Alcotest.(check int) "inputs" 5 (Array.length c.Circuit.inputs);
  Alcotest.(check int) "outputs" 2 (Array.length c.Circuit.outputs);
  Alcotest.(check int) "depth" 3 c.Circuit.depth

let test_c17_truth_sample () =
  (* independently computed: G22 = NAND(G10,G16), G23 = NAND(G16,G19) *)
  let c = Benchmarks.c17 () in
  let eval g1 g2 g3 g6 g7 =
    let g10 = not (g1 && g3) in
    let g11 = not (g3 && g6) in
    let g16 = not (g2 && g11) in
    let g19 = not (g11 && g7) in
    (not (g10 && g16), not (g16 && g19))
  in
  for v = 0 to 31 do
    let bit i = v land (1 lsl i) <> 0 in
    let ins = [| bit 0; bit 1; bit 2; bit 3; bit 4 |] in
    let e22, e23 = eval ins.(0) ins.(1) ins.(2) ins.(3) ins.(4) in
    Alcotest.(check (array bool))
      (Printf.sprintf "c17 input %d" v)
      [| e22; e23 |] (Circuit.eval c ins)
  done

let test_bench_roundtrip () =
  let c = Generators.ripple_adder 4 in
  let text = Bench_format.to_string c in
  let c' = Bench_format.parse_string ~name:c.Circuit.name text in
  Alcotest.(check int) "same cells" (Circuit.num_cells c) (Circuit.num_cells c');
  Alcotest.(check int) "same depth" c.Circuit.depth c'.Circuit.depth;
  (* behaviour preserved *)
  let r = Sl_util.Rng.create 5 in
  for _ = 1 to 50 do
    let ins = Array.init (Array.length c.Circuit.inputs) (fun _ -> Sl_util.Rng.int r 2 = 1) in
    Alcotest.(check (array bool)) "same function" (Circuit.eval c ins) (Circuit.eval c' ins)
  done

let test_bench_parse_errors () =
  let cases =
    [
      ("missing paren", "INPUT(a\nOUTPUT(a)\n");
      ("dff", "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n");
      ("bad function", "INPUT(a)\nOUTPUT(o)\no = FROB(a)\n");
      ("arity", "INPUT(a)\nOUTPUT(o)\no = NAND(a)\n");
    ]
  in
  List.iter
    (fun (name, text) ->
      match Bench_format.parse_string ~name text with
      | _ -> Alcotest.failf "%s: expected Parse_error" name
      | exception Bench_format.Parse_error _ -> ())
    cases

let test_bench_sequential_cut () =
  (* a 2-bit counter-ish FSM: two DFFs, some logic *)
  let text =
    "INPUT(en)\n\
     OUTPUT(out)\n\
     q0 = DFF(d0)\n\
     q1 = DFF(d1)\n\
     d0 = XOR(q0, en)\n\
     carry = AND(q0, en)\n\
     d1 = XOR(q1, carry)\n\
     out = AND(q0, q1)\n"
  in
  (* default rejects *)
  (match Bench_format.parse_string ~name:"fsm" text with
  | _ -> Alcotest.fail "DFF accepted without ~sequential:`Cut"
  | exception Bench_format.Parse_error _ -> ());
  let c = Bench_format.parse_string ~sequential:`Cut ~name:"fsm" text in
  (* en + 2 register outputs become inputs; out + 2 register data nets
     become outputs *)
  Alcotest.(check int) "inputs" 3 (Array.length c.Circuit.inputs);
  Alcotest.(check int) "outputs" 3 (Array.length c.Circuit.outputs);
  Alcotest.(check int) "cells" 4 (Circuit.num_cells c);
  (* combinational behaviour of the cut core: inputs en,q0,q1 *)
  let eval en q0 q1 =
    let out = Circuit.eval c [| en; q0; q1 |] in
    (* outputs in mark order: out, d0, d1 *)
    (out.(0), out.(1), out.(2))
  in
  let out, d0, d1 = eval true true false in
  Alcotest.(check bool) "out" false out;
  Alcotest.(check bool) "d0 = q0 xor en" false d0;
  Alcotest.(check bool) "d1 = q1 xor (q0 and en)" true d1

let test_bench_comments_and_blanks () =
  let text = "# header\n\nINPUT(a)  # trailing comment\nOUTPUT(o)\no = NOT(a)\n\n" in
  let c = Bench_format.parse_string ~name:"x" text in
  Alcotest.(check int) "one cell" 1 (Circuit.num_cells c)

(* ---------- generators ---------- *)

let test_ripple_adder_correct () =
  let n = 8 in
  let c = Generators.ripple_adder n in
  let r = Sl_util.Rng.create 71 in
  for _ = 1 to 200 do
    let a = Sl_util.Rng.int r 256 and b = Sl_util.Rng.int r 256 in
    let cin = Sl_util.Rng.int r 2 in
    let ins = Array.concat [ bits_of_int n a; bits_of_int n b; [| cin = 1 |] ] in
    let out = Circuit.eval c ins in
    let got = int_of_bits out in
    Alcotest.(check int) (Printf.sprintf "%d+%d+%d" a b cin) (a + b + cin) got
  done

let test_carry_select_adder_correct () =
  let n = 8 in
  let c = Generators.carry_select_adder n 3 in
  let r = Sl_util.Rng.create 72 in
  for _ = 1 to 200 do
    let a = Sl_util.Rng.int r 256 and b = Sl_util.Rng.int r 256 in
    let cin = Sl_util.Rng.int r 2 in
    let ins = Array.concat [ bits_of_int n a; bits_of_int n b; [| cin = 1 |] ] in
    let got = int_of_bits (Circuit.eval c ins) in
    Alcotest.(check int) (Printf.sprintf "%d+%d+%d" a b cin) (a + b + cin) got
  done

let test_array_multiplier_correct () =
  let n = 6 in
  let c = Generators.array_multiplier n in
  Alcotest.(check int) "2n product bits" (2 * n) (Array.length c.Circuit.outputs);
  let r = Sl_util.Rng.create 73 in
  for _ = 1 to 300 do
    let a = Sl_util.Rng.int r 64 and b = Sl_util.Rng.int r 64 in
    let ins = Array.concat [ bits_of_int n a; bits_of_int n b ] in
    let got = int_of_bits (Circuit.eval c ins) in
    Alcotest.(check int) (Printf.sprintf "%d*%d" a b) (a * b) got
  done

let test_array_multiplier_exhaustive_4bit () =
  let c = Generators.array_multiplier 4 in
  for a = 0 to 15 do
    for b = 0 to 15 do
      let ins = Array.concat [ bits_of_int 4 a; bits_of_int 4 b ] in
      Alcotest.(check int) (Printf.sprintf "%d*%d" a b) (a * b)
        (int_of_bits (Circuit.eval c ins))
    done
  done

let test_alu_correct () =
  let n = 8 in
  let c = Generators.alu n in
  let r = Sl_util.Rng.create 74 in
  for _ = 1 to 300 do
    let a = Sl_util.Rng.int r 256 and b = Sl_util.Rng.int r 256 in
    let op = Sl_util.Rng.int r 4 in
    let cin = 0 in
    let ins =
      Array.concat
        [
          bits_of_int n a; bits_of_int n b; [| cin = 1 |];
          [| op land 1 = 1 |]; [| op land 2 = 2 |];
        ]
    in
    let out = Circuit.eval c ins in
    let res_bits = Array.sub out 0 n in
    let got = int_of_bits res_bits in
    let expect =
      match op with
      | 0 -> (a + b) land 255
      | 1 -> a land b
      | 2 -> a lor b
      | _ -> a lxor b
    in
    Alcotest.(check int) (Printf.sprintf "op%d %d %d" op a b) expect got;
    (* zero flag is the last output *)
    let zero = out.(Array.length out - 1) in
    Alcotest.(check bool) "zero flag" (got = 0) zero
  done

let test_parity_tree_correct () =
  let n = 16 in
  let c = Generators.parity_tree n in
  let r = Sl_util.Rng.create 75 in
  for _ = 1 to 100 do
    let ins = Array.init n (fun _ -> Sl_util.Rng.int r 2 = 1) in
    let expect = Array.fold_left (fun acc b -> acc <> b) false ins in
    Alcotest.(check (array bool)) "parity" [| expect |] (Circuit.eval c ins)
  done

let test_decoder_correct () =
  let n = 4 in
  let c = Generators.decoder n in
  for v = 0 to 15 do
    let ins = bits_of_int n v in
    let out = Circuit.eval c ins in
    Array.iteri
      (fun i b -> Alcotest.(check bool) (Printf.sprintf "line %d for %d" i v) (i = v) b)
      out
  done

let test_barrel_shifter_correct () =
  let n = 8 in
  let c = Generators.barrel_shifter n in
  Alcotest.(check int) "outputs" n (Array.length c.Circuit.outputs);
  let r = Sl_util.Rng.create 81 in
  for _ = 1 to 200 do
    let v = Sl_util.Rng.int r 256 in
    let s = Sl_util.Rng.int r 8 in
    let ins = Array.concat [ bits_of_int n v; bits_of_int 3 s ] in
    let got = int_of_bits (Circuit.eval c ins) in
    (* right rotation: output bit i = input bit (i + s) mod n *)
    let expect = ((v lsr s) lor (v lsl (n - s))) land 255 in
    Alcotest.(check int) (Printf.sprintf "ror %d by %d" v s) expect got
  done

let test_barrel_shifter_rejects_bad_width () =
  List.iter
    (fun n ->
      match Generators.barrel_shifter n with
      | _ -> Alcotest.failf "width %d accepted" n
      | exception Invalid_argument _ -> ())
    [ 0; 1; 3; 12 ]

let test_verilog_structure () =
  let c = Generators.ripple_adder 4 in
  let v = Verilog.to_string c in
  Alcotest.(check bool) "module header" true
    (String.length v > 0
    &&
    match String.index_opt v '(' with
    | Some _ -> true
    | None -> false);
  let count_substring needle hay =
    let n = String.length needle and h = String.length hay in
    let rec loop i acc =
      if i + n > h then acc
      else if String.sub hay i n = needle then loop (i + 1) (acc + 1)
      else loop (i + 1) acc
    in
    loop 0 0
  in
  Alcotest.(check int) "one endmodule" 1 (count_substring "endmodule" v);
  (* one primitive instance per cell *)
  Alcotest.(check int) "xor instances" 8 (count_substring "\n  xor " v);
  Alcotest.(check int) "nand instances" 12 (count_substring "\n  nand " v);
  (* all 9 inputs and 5 outputs declared *)
  Alcotest.(check int) "inputs" 9 (count_substring "\n  input " v);
  Alcotest.(check int) "outputs" 5 (count_substring "\n  output " v)

let test_verilog_escapes_weird_names () =
  let text = "INPUT(a.b)\nOUTPUT(o)\no = NOT(a.b)\n" in
  let c = Bench_format.parse_string ~name:"weird" text in
  let v = Verilog.to_string c in
  Alcotest.(check bool) "escaped identifier present" true
    (let needle = "\\a.b " in
     let n = String.length needle and h = String.length v in
     let rec loop i = i + n <= h && (String.sub v i n = needle || loop (i + 1)) in
     loop 0)

let test_random_dag_shape () =
  let c = Generators.random_dag ~seed:7 ~gates:500 ~inputs:32 ~outputs:8 in
  Alcotest.(check int) "cells" 500 (Circuit.num_cells c);
  Alcotest.(check int) "inputs" 32 (Array.length c.Circuit.inputs);
  Alcotest.(check int) "outputs" 8 (Array.length c.Circuit.outputs);
  Alcotest.(check bool) "nontrivial depth" true (c.Circuit.depth > 5)

let test_random_dag_deterministic () =
  let c1 = Generators.random_dag ~seed:9 ~gates:200 ~inputs:16 ~outputs:4 in
  let c2 = Generators.random_dag ~seed:9 ~gates:200 ~inputs:16 ~outputs:4 in
  Alcotest.(check string) "identical netlists"
    (Bench_format.to_string c1) (Bench_format.to_string c2);
  let c3 = Generators.random_dag ~seed:10 ~gates:200 ~inputs:16 ~outputs:4 in
  Alcotest.(check bool) "different seed differs" true
    (Bench_format.to_string c1 <> Bench_format.to_string c3)

(* Scaling workloads: structure, determinism and the format round-trip.
   rand30k (30k gates) is cheap enough to instantiate twice; rand100k's
   shape is pinned through a single instantiation. *)
let check_topological (c : Circuit.t) =
  Array.iter
    (fun (g : Circuit.gate) ->
      Array.iter
        (fun f ->
          if f >= g.Circuit.id then Alcotest.failf "fanin %d >= gate %d" f g.Circuit.id;
          if (Circuit.gate c f).Circuit.level >= g.Circuit.level then
            Alcotest.failf "fanin level not below gate %d" g.Circuit.id)
        g.Circuit.fanin)
    c.Circuit.gates

let test_rand30k_shape_and_roundtrip () =
  let c = Generators.rand30k () in
  Alcotest.(check string) "name" "rand30k" c.Circuit.name;
  Alcotest.(check int) "cells" 30_000 (Circuit.num_cells c);
  Alcotest.(check int) "inputs" 256 (Array.length c.Circuit.inputs);
  Alcotest.(check int) "outputs" 64 (Array.length c.Circuit.outputs);
  check_topological c;
  (* deterministic across runs... *)
  let text = Bench_format.to_string c in
  Alcotest.(check string) "identical on re-generation" text
    (Bench_format.to_string (Generators.rand30k ()));
  (* ...and the text round-trips to the same structure *)
  let c' = Bench_format.parse_string ~name:"rand30k" text in
  Alcotest.(check string) "bench round-trip" text (Bench_format.to_string c')

let test_rand100k_shape () =
  let c = Generators.rand100k () in
  Alcotest.(check string) "name" "rand100k" c.Circuit.name;
  Alcotest.(check int) "cells" 100_000 (Circuit.num_cells c);
  Alcotest.(check int) "inputs" 512 (Array.length c.Circuit.inputs);
  Alcotest.(check int) "outputs" 128 (Array.length c.Circuit.outputs);
  check_topological c

let test_seq_pipeline_bench () =
  let text = Generators.seq_pipeline_bench ~stages:3 ~width:4 ~layers:2 in
  (* identical text on re-generation *)
  Alcotest.(check string) "deterministic" text
    (Generators.seq_pipeline_bench ~stages:3 ~width:4 ~layers:2);
  (* registers present, so the strict parser must reject it... *)
  (match Bench_format.parse_string ~name:"spipe" text with
  | _ -> Alcotest.fail "expected Parse_error on DFF"
  | exception Bench_format.Parse_error _ -> ());
  (* ...and the register cut turns each DFF into a PI/PO pair:
     width PIs + (stages-1)*width register outputs, and the mirror POs *)
  let c = Bench_format.parse_string ~sequential:`Cut ~name:"spipe" text in
  Alcotest.(check int) "cells" (3 * 4 * 2) (Circuit.num_cells c);
  Alcotest.(check int) "inputs" (4 + (2 * 4)) (Array.length c.Circuit.inputs);
  Alcotest.(check int) "outputs" (4 + (2 * 4)) (Array.length c.Circuit.outputs);
  (* each stage cloud is [layers] levels deep; the cut makes them
     independent, so the whole circuit is [layers] levels deep *)
  Alcotest.(check int) "depth = layers" 2 c.Circuit.depth;
  check_topological c

(* The register-aware cut parser exposes the D→Q pairing of every cut
   DFF: Q is a launch input of the cut circuit, D a capture output, and
   the pair maps a D-side arrival to the next stage's Q launch. *)
let test_register_pairing () =
  let text = Generators.seq_pipeline_bench ~stages:2 ~width:3 ~layers:2 in
  let c, regs = Bench_format.parse_string_cut ~name:"spipe2" text in
  (* one record per cut DFF: (stages - 1) * width *)
  Alcotest.(check int) "register count" 3 (List.length regs);
  let input_names =
    Array.to_list
      (Array.map (fun i -> (Circuit.gate c i).Circuit.name) c.Circuit.inputs)
  in
  List.iter
    (fun (r : Bench_format.register) ->
      Alcotest.(check bool)
        (r.Bench_format.q ^ " is a launch input") true
        (List.mem r.Bench_format.q input_names);
      Alcotest.(check bool)
        (r.Bench_format.d ^ " is a capture output") true
        (Array.exists
           (fun o -> (Circuit.gate c o).Circuit.name = r.Bench_format.d)
           c.Circuit.outputs);
      Alcotest.(check bool) "distinct nets" true
        (r.Bench_format.q <> r.Bench_format.d))
    regs;
  (* pairing is unique on both sides *)
  let qs = List.map (fun (r : Bench_format.register) -> r.Bench_format.q) regs in
  let ds = List.map (fun (r : Bench_format.register) -> r.Bench_format.d) regs in
  Alcotest.(check int) "unique Q" 3 (List.length (List.sort_uniq compare qs));
  Alcotest.(check int) "unique D" 3 (List.length (List.sort_uniq compare ds));
  (* the circuit itself is exactly what the plain cut parser builds *)
  let c' = Bench_format.parse_string ~sequential:`Cut ~name:"spipe2" text in
  Alcotest.(check string) "same netlist" (Bench_format.to_string c')
    (Bench_format.to_string c)

let test_large_registry () =
  (* resolvable by name, but never part of the standard suite *)
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " resolvable") true (Benchmarks.by_name n <> None);
      Alcotest.(check bool) (n ^ " not in names") false (List.mem n Benchmarks.names))
    Benchmarks.large_names;
  match Benchmarks.by_name "spipe30k" with
  | Some c ->
    Alcotest.(check int) "spipe30k cells" 30_720 (Circuit.num_cells c);
    Alcotest.(check bool) "wide and shallow" true (c.Circuit.depth <= 24)
  | None -> Alcotest.fail "spipe30k missing"

let test_benchmark_suite_instantiates () =
  List.iter
    (fun (name, c) ->
      Alcotest.(check bool)
        (name ^ " nonempty") true
        (Circuit.num_cells c > 0 && Array.length c.Circuit.outputs > 0))
    (Benchmarks.full ())

let test_benchmark_lookup () =
  (match Benchmarks.by_name "add32" with
  | Some c -> Alcotest.(check int) "add32 cells" 160 (Circuit.num_cells c)
  | None -> Alcotest.fail "add32 missing");
  match Benchmarks.by_name "nonexistent" with
  | Some _ -> Alcotest.fail "phantom benchmark"
  | None -> ()

(* property: generated circuits always satisfy the topological invariant
   and have consistent fanin/fanout cross-references *)
let prop_random_dag_well_formed =
  QCheck.Test.make ~name:"random dags well-formed" ~count:20
    QCheck.(int_range 1 1000)
    (fun seed ->
      let c = Generators.random_dag ~seed ~gates:120 ~inputs:12 ~outputs:5 in
      Array.for_all
        (fun (g : Circuit.gate) ->
          Array.for_all (fun f -> f < g.Circuit.id) g.Circuit.fanin
          && Array.for_all
               (fun f ->
                 Array.exists (fun x -> x = g.Circuit.id) (Circuit.gate c f).Circuit.fanout)
               g.Circuit.fanin)
        c.Circuit.gates)

let prop_adder_widths =
  QCheck.Test.make ~name:"ripple adders of any width are correct" ~count:20
    QCheck.(int_range 1 12)
    (fun n ->
      let c = Generators.ripple_adder n in
      let r = Sl_util.Rng.create (n * 31) in
      let ok = ref true in
      for _ = 1 to 20 do
        let a = Sl_util.Rng.int r (1 lsl n) and b = Sl_util.Rng.int r (1 lsl n) in
        let ins = Array.concat [ bits_of_int n a; bits_of_int n b; [| false |] ] in
        if int_of_bits (Circuit.eval c ins) <> a + b then ok := false
      done;
      !ok)

(* is_po is an O(1) flag built with the circuit: it must agree with
   membership in [outputs] for every gate *)
let po_flags_agree (c : Circuit.t) =
  let member = Array.make (Circuit.num_gates c) false in
  Array.iter (fun o -> member.(o) <- true) c.Circuit.outputs;
  Array.for_all (fun (g : Circuit.gate) -> Circuit.is_po c g.Circuit.id = member.(g.Circuit.id))
    c.Circuit.gates

(* property: partition_at_registers is a true partition — every gate in
   exactly one part, the id maps mutually consistent, kinds/levels
   preserved under the monotone remap, the global outputs exactly
   covered by the parts' outputs, and is_po right on the whole circuit
   and on every cone *)
let prop_register_partition =
  QCheck.Test.make ~name:"partition_at_registers is a true partition"
    ~count:10
    QCheck.(triple (int_range 2 4) (int_range 2 6) (int_range 1 3))
    (fun (stages, width, layers) ->
      let text = Generators.seq_pipeline_bench ~stages ~width ~layers in
      let c = Bench_format.parse_string ~sequential:`Cut ~name:"sp" text in
      match Circuit.partition_at_registers c with
      | None -> false
      | Some p ->
        let n = Circuit.num_gates c in
        let seen = Array.make n 0 in
        Array.iter
          (fun ids -> Array.iter (fun g -> seen.(g) <- seen.(g) + 1) ids)
          p.Circuit.part_ids;
        let covered = Array.for_all (fun k -> k = 1) seen in
        let maps_consistent = ref true in
        for g = 0 to n - 1 do
          let pt = p.Circuit.part_of.(g) in
          let l = p.Circuit.local_of.(g) in
          if p.Circuit.part_ids.(pt).(l) <> g then maps_consistent := false;
          let sub = p.Circuit.parts.(pt) in
          let sg = Circuit.gate sub l in
          if sg.Circuit.kind <> (Circuit.gate c g).Circuit.kind then
            maps_consistent := false;
          if sg.Circuit.level <> (Circuit.gate c g).Circuit.level then
            maps_consistent := false
        done;
        let outputs_covered =
          Array.fold_left
            (fun acc (sub : Circuit.t) ->
              acc + Array.length sub.Circuit.outputs)
            0 p.Circuit.parts
          = Array.length c.Circuit.outputs
        in
        covered && !maps_consistent && outputs_covered
        && po_flags_agree c
        && Array.for_all po_flags_agree p.Circuit.parts
        && Array.length p.Circuit.parts >= 2)

let suite =
  let qc = List.map QCheck_alcotest.to_alcotest in
  [
    ( "netlist.cell_kind",
      [
        Alcotest.test_case "truth tables" `Quick test_kind_eval_truth_tables;
        Alcotest.test_case "bad arity" `Quick test_kind_eval_bad_arity;
        Alcotest.test_case "string roundtrip" `Quick test_kind_string_roundtrip;
      ] );
    ( "netlist.circuit",
      [
        Alcotest.test_case "topological invariant" `Quick test_builder_topological_invariant;
        Alcotest.test_case "forward reference" `Quick test_builder_forward_reference;
        Alcotest.test_case "cycle detection" `Quick test_builder_detects_cycle;
        Alcotest.test_case "duplicate rejection" `Quick test_builder_rejects_duplicates;
        Alcotest.test_case "dangling net" `Quick test_builder_dangling_net;
        Alcotest.test_case "eval tiny" `Quick test_circuit_eval_tiny;
        Alcotest.test_case "levels and cones" `Quick test_circuit_levels_and_cones;
        Alcotest.test_case "fanout consistency" `Quick test_fanout_consistency;
      ] );
    ( "netlist.bench_format",
      [
        Alcotest.test_case "c17 structure" `Quick test_c17_structure;
        Alcotest.test_case "c17 truth table" `Quick test_c17_truth_sample;
        Alcotest.test_case "roundtrip" `Quick test_bench_roundtrip;
        Alcotest.test_case "parse errors" `Quick test_bench_parse_errors;
        Alcotest.test_case "comments and blanks" `Quick test_bench_comments_and_blanks;
        Alcotest.test_case "sequential register cut" `Quick test_bench_sequential_cut;
      ] );
    ( "netlist.generators",
      [
        Alcotest.test_case "ripple adder" `Quick test_ripple_adder_correct;
        Alcotest.test_case "carry-select adder" `Quick test_carry_select_adder_correct;
        Alcotest.test_case "array multiplier" `Quick test_array_multiplier_correct;
        Alcotest.test_case "multiplier exhaustive 4b" `Quick test_array_multiplier_exhaustive_4bit;
        Alcotest.test_case "alu" `Quick test_alu_correct;
        Alcotest.test_case "parity tree" `Quick test_parity_tree_correct;
        Alcotest.test_case "decoder" `Quick test_decoder_correct;
        Alcotest.test_case "barrel shifter" `Quick test_barrel_shifter_correct;
        Alcotest.test_case "barrel shifter widths" `Quick test_barrel_shifter_rejects_bad_width;
        Alcotest.test_case "verilog structure" `Quick test_verilog_structure;
        Alcotest.test_case "verilog escaping" `Quick test_verilog_escapes_weird_names;
        Alcotest.test_case "random dag shape" `Quick test_random_dag_shape;
        Alcotest.test_case "random dag deterministic" `Quick test_random_dag_deterministic;
        Alcotest.test_case "rand30k shape + roundtrip" `Slow test_rand30k_shape_and_roundtrip;
        Alcotest.test_case "rand100k shape" `Slow test_rand100k_shape;
        Alcotest.test_case "seq pipeline bench" `Quick test_seq_pipeline_bench;
        Alcotest.test_case "register pairing" `Quick test_register_pairing;
        Alcotest.test_case "large registry" `Slow test_large_registry;
        Alcotest.test_case "suite instantiates" `Quick test_benchmark_suite_instantiates;
        Alcotest.test_case "benchmark lookup" `Quick test_benchmark_lookup;
      ]
      @ qc
          [
            prop_random_dag_well_formed; prop_adder_widths;
            prop_register_partition;
          ] );
  ]
