(* The four-lane kernels against the scalar ones, word for word: the
   Clark max and path moments of Canonical, erfc and Φ of Special, and
   Ssta's level batches against per-gate forward_gate / bwd_gate. *)

module Canonical = Sl_ssta.Canonical
module Arena = Sl_ssta.Arena
module Ssta = Sl_ssta.Ssta
module Circuit = Sl_netlist.Circuit
module Cell_kind = Sl_netlist.Cell_kind
module Special = Sl_util.Special
module Rng = Sl_util.Rng

let bits = Int64.bits_of_float

(* Every word of [got] equals [want]'s, or the first difference. *)
let first_diff (want : float array) (got : float array) =
  let n = Array.length want in
  let rec go k =
    if k = n then None else if bits want.(k) <> bits got.(k) then Some k else go (k + 1)
  in
  go 0

(* ---------- the Clark max on four lanes ---------- *)

(* Operand pairs that take each branch of the kernel: a random pair, two
   zero-sigma operands (a² = 0), sigmas near 1e-13 (a² <= 1e-24), equal
   means (α = +0), a -0 and a +0 mean (α = -0), means 40 and more sigmas
   apart (|α| >= 40, both signs), and one zero-sigma operand. *)
let kinds =
  [| "random"; "both zero-sigma"; "a2 tiny"; "alpha +0"; "alpha -0"; "alpha >= 40";
     "alpha <= -40"; "one zero-sigma" |]

let fill_pair r ~np kind (buf : float array) ao bo =
  let row o ~mean ~rnd coeff =
    buf.(o) <- mean;
    buf.(o + 1) <- rnd;
    for k = 0 to np - 1 do
      buf.(o + 2 + k) <- coeff k
    done
  in
  let rand_coeff _ = Rng.float r 2.0 -. 1.0 in
  let zero _ = 0.0 in
  let tiny _ = Rng.float r 2e-13 -. 1e-13 in
  match kind with
  | 0 ->
    row ao ~mean:(Rng.float r 20.0) ~rnd:(Rng.float r 1.0) rand_coeff;
    row bo ~mean:(Rng.float r 20.0) ~rnd:(Rng.float r 1.0) rand_coeff
  | 1 ->
    row ao ~mean:(Rng.float r 20.0) ~rnd:0.0 zero;
    row bo ~mean:(Rng.float r 20.0) ~rnd:0.0 zero
  | 2 ->
    row ao ~mean:(Rng.float r 20.0) ~rnd:1e-13 tiny;
    row bo ~mean:(Rng.float r 20.0) ~rnd:0.0 tiny
  | 3 ->
    let m = Rng.float r 20.0 in
    row ao ~mean:m ~rnd:(Rng.float r 1.0) rand_coeff;
    row bo ~mean:m ~rnd:(Rng.float r 1.0) rand_coeff
  | 4 ->
    row ao ~mean:(-0.0) ~rnd:(Rng.float r 1.0) rand_coeff;
    row bo ~mean:0.0 ~rnd:(Rng.float r 1.0) rand_coeff
  | 5 ->
    row ao ~mean:1000.0 ~rnd:0.3 (fun _ -> Rng.float r 0.02);
    row bo ~mean:1.0 ~rnd:0.2 (fun _ -> Rng.float r 0.02)
  | 6 ->
    row ao ~mean:1.0 ~rnd:0.3 (fun _ -> Rng.float r 0.02);
    row bo ~mean:1000.0 ~rnd:0.2 (fun _ -> Rng.float r 0.02)
  | _ ->
    row ao ~mean:(Rng.float r 20.0) ~rnd:(Rng.float r 1.0) rand_coeff;
    row bo ~mean:(Rng.float r 20.0) ~rnd:0.0 zero

(* Four lanes of one call, each of a drawn kind, each writing either a
   row of its own or its first operand's row; the same rows then go
   through [max2_rows] lane by lane on a copy. *)
let max_lanes_case ~np (seed, lane_kinds, in_place) =
  let r = Rng.create seed in
  let w = Canonical.row_width np in
  let buf = Array.make (12 * w) 0.0 in
  let ao = Array.init 4 (fun l -> 3 * l * w) and bo = Array.init 4 (fun l -> ((3 * l) + 1) * w) in
  let dr = Array.init 4 (fun l -> if in_place.(l) then ao.(l) else ((3 * l) + 2) * w) in
  Array.iteri (fun l kind -> fill_pair r ~np kind buf ao.(l) bo.(l)) lane_kinds;
  let want = Array.copy buf in
  let f = Canonical.frame () in
  for l = 0 to 3 do
    Canonical.max2_rows f ~np want ao.(l) want bo.(l) want dr.(l)
  done;
  Canonical.max2_rows4 (Canonical.frame4 ()) ~np buf ao buf bo buf dr;
  match first_diff want buf with
  | None -> true
  | Some k ->
    QCheck.Test.fail_reportf "lane %d (%s%s), word %d: %h, scalar %h" (k / (3 * w))
      kinds.(lane_kinds.(k / (3 * w)))
      (if in_place.(k / (3 * w)) then ", in place" else "")
      (k mod w) buf.(k) want.(k)

let lanes_arb =
  QCheck.make
    ~print:(fun (seed, ks, ip) ->
      Printf.sprintf "seed %d, lanes [%s]" seed
        (String.concat "; "
           (List.init 4 (fun l ->
                kinds.(ks.(l)) ^ if ip.(l) then " (in place)" else ""))))
    QCheck.Gen.(
      triple (int_bound 1_000_000)
        (array_size (return 4) (int_bound (Array.length kinds - 1)))
        (array_size (return 4) bool))

let prop_max_lanes np =
  QCheck.Test.make ~count:400
    ~name:(Printf.sprintf "max2_rows4 = max2_rows per lane, %d PCs" np)
    lanes_arb (max_lanes_case ~np)

(* Every kind in every lane at least once, beside every other kind. *)
let test_max_lanes_all_kinds () =
  let nk = Array.length kinds in
  List.iter
    (fun np ->
      for a = 0 to nk - 1 do
        for b = 0 to nk - 1 do
          let ks = [| a; b; (a + b) mod nk; ((a * b) + 1) mod nk |] in
          List.iter
            (fun ip -> ignore (max_lanes_case ~np (a + (nk * b), ks, ip)))
            [ [| false; true; false; true |]; [| true; false; true; false |] ]
        done
      done)
    [ 34; 5 ]

(* ---------- erfc and Φ on four lanes ---------- *)

let specials =
  [| 0.0; -0.0; 1.0; -1.0; 6.0; -6.0; 27.5; -27.5; 40.0; -40.0; infinity; neg_infinity;
     Float.nan |]

let test_erfc_phi_lanes () =
  let n = Array.length specials in
  let f = Array.make 8 0.0 in
  let check name lanes scalar =
    for i = 0 to (n * n * n * n) - 1 do
      let x =
        [| specials.(i mod n); specials.(i / n mod n); specials.(i / (n * n) mod n);
           specials.(i / (n * n * n) mod n) |]
      in
      Array.blit x 0 f 0 4;
      lanes f;
      for l = 0 to 3 do
        if bits f.(l) <> bits (scalar x.(l)) then
          Alcotest.failf "%s lane %d of (%g, %g, %g, %g): %h, scalar %h" name l x.(0) x.(1)
            x.(2) x.(3) f.(l) (scalar x.(l))
      done
    done
  in
  check "erfc4" Special.erfc4 Special.erfc;
  check "normal_cdf4" Special.normal_cdf4 Special.normal_cdf

(* ---------- path moments on four lanes ---------- *)

let test_moments_lanes () =
  let r = Rng.create 41 in
  List.iter
    (fun np ->
      let n = 16 in
      let w = Canonical.row_width np in
      let rows () =
        Array.init (n * w) (fun k ->
            if k mod w = 1 then if k / w mod 3 = 0 then 0.0 else Rng.float r 2.0
            else Rng.float r 10.0 -. 5.0)
      in
      let a = rows () and b = rows () in
      let mu = Array.make n 0.0 and sigma = Array.make n 0.0 in
      let mu' = Array.make n 0.0 and sigma' = Array.make n 0.0 in
      for i = 0 to n - 1 do
        Canonical.add_moments_rows ~np a (i * w) b (i * w) ~mu ~sigma i
      done;
      (* lanes in a scattered order, one gate per lane *)
      List.iter
        (fun (i0, i1, i2, i3) -> Canonical.add_moments_rows4 ~np a b ~mu:mu' ~sigma:sigma' i0 i1 i2 i3)
        [ (3, 0, 15, 7); (1, 2, 4, 5); (6, 8, 9, 10); (11, 12, 13, 14) ];
      (match (first_diff mu mu', first_diff sigma sigma') with
      | None, None -> ()
      | Some i, _ -> Alcotest.failf "%d PCs: mu of %d: %h, scalar %h" np i mu'.(i) mu.(i)
      | _, Some i ->
        Alcotest.failf "%d PCs: sigma of %d: %h, scalar %h" np i sigma'.(i) sigma.(i)))
    [ 34; 5; 0 ]

(* ---------- level batches ---------- *)

(* A two-level netlist over six inputs with fanin counts 0 (the PIs), 1,
   2 and 5 and fanout counts 0 (a dead gate; PO drivers), 1 (with and
   without a PO), 2, 3, 4 and 5 (with and without a PO). *)
let batch_circuit () =
  let b = Circuit.Builder.create "lanes" in
  List.iter (fun i -> ignore (Circuit.Builder.add_input b (Printf.sprintf "i%d" i))) [ 0; 1; 2; 3; 4; 5 ];
  let g name kind fanin = ignore (Circuit.Builder.add_gate b name kind fanin) in
  g "n1" Cell_kind.Not [ "i0" ];
  g "a2" Cell_kind.And [ "i0"; "i1" ];
  g "a5" Cell_kind.And [ "i0"; "i1"; "i2"; "i3"; "i4" ];
  g "b1" Cell_kind.Buf [ "i5" ];
  g "o2" Cell_kind.Or [ "i1"; "i2" ];
  g "x5" Cell_kind.Nand [ "i1"; "i2"; "i3"; "i4"; "i5" ];
  g "dead" Cell_kind.Xor [ "i2"; "i3" ];
  g "p0" Cell_kind.Or [ "i3"; "i4" ];
  g "c5" Cell_kind.Nor [ "n1"; "a2"; "a5"; "b1"; "x5" ];
  g "d2" Cell_kind.And [ "a5"; "x5" ];
  g "e1" Cell_kind.Not [ "a5" ];
  g "f5" Cell_kind.Xnor [ "a5"; "x5"; "a2"; "n1"; "i0" ];
  g "h2" Cell_kind.Or [ "a5"; "o2" ];
  g "k5" Cell_kind.And [ "x5"; "n1"; "a2"; "i1"; "i2" ];
  g "m1" Cell_kind.Buf [ "x5" ];
  List.iter (Circuit.Builder.mark_output b)
    [ "c5"; "d2"; "e1"; "f5"; "h2"; "k5"; "m1"; "a2"; "o2"; "x5"; "p0" ];
  Circuit.Builder.build b

let random_arena r ~n ~num_pcs =
  let a = Arena.create ~n ~num_pcs in
  for i = 0 to n - 1 do
    Arena.set a i
      (Canonical.make ~mean:(Rng.float r 100.0)
         ~coeffs:(Array.init num_pcs (fun _ -> Rng.float r 4.0 -. 2.0))
         ~rnd:(if i mod 4 = 0 then 0.0 else Rng.float r 2.0))
  done;
  a

let copy (a : Arena.t) =
  let b = Arena.create ~n:a.Arena.n ~num_pcs:a.Arena.num_pcs in
  Array.blit a.Arena.data 0 b.Arena.data 0 (Array.length a.Arena.data);
  b

(* Staged batches of every size 1-9 over random gate subsets (PIs, dead
   gates and PO drivers included) and in-place batches over each level,
   at 34 and 5 PCs, against the per-gate kernels on copies. *)
let test_level_batches () =
  let c = batch_circuit () in
  let n = Circuit.num_gates c in
  let r = Rng.create 7 in
  List.iter
    (fun num_pcs ->
      let delay = random_arena r ~n ~num_pcs and arr = random_arena r ~n ~num_pcs in
      let bwd = random_arena r ~n ~num_pcs in
      let sc = Ssta.scratch ~num_pcs and sc' = Ssta.scratch ~num_pcs in
      let fail what size k want got =
        match first_diff want.Arena.data got.Arena.data with
        | None -> ()
        | Some w ->
          Alcotest.failf "%s, %d PCs, batch of %d, trial %d: word %d (slot %d) %h, per gate %h"
            what num_pcs size k w
            (w / Arena.width want)
            got.Arena.data.(w) want.Arena.data.(w)
      in
      for size = 1 to 9 do
        for trial = 0 to 24 do
          let ids = Array.init size (fun _ -> Rng.int r n) in
          let lo = if size > 2 then 1 else 0 in
          let stage = random_arena r ~n:size ~num_pcs in
          let want = copy stage and got = copy stage in
          for k = lo to size - 1 do
            if (Circuit.gate c ids.(k)).Circuit.kind <> Cell_kind.Pi then
              Ssta.forward_gate c ~delay ~arr sc' ~dst:want k ids.(k)
          done;
          Ssta.forward_batch c ~delay ~arr sc ~dst:got ~staged:true ids lo size;
          fail "forward" size trial want got;
          let want = copy stage and got = copy stage in
          let live = Array.init size (fun k -> k mod 2 = 0) in
          let live' = Array.copy live in
          for k = lo to size - 1 do
            live.(k) <- Ssta.bwd_gate c ~delay ~bwd sc' ~dst:want k ids.(k)
          done;
          Ssta.backward_batch c ~delay ~bwd sc ~dst:got ~staged:true ~live:live' ids lo size;
          fail "backward" size trial want got;
          if live <> live' then
            Alcotest.failf "backward, %d PCs, batch of %d, trial %d: liveness flags differ"
              num_pcs size trial
        done
      done;
      (* in place, a level at a time, as the from-scratch sweeps run *)
      let want = copy arr and got = copy arr in
      Array.iter
        (fun level ->
          Array.iter
            (fun gid ->
              if (Circuit.gate c gid).Circuit.kind <> Cell_kind.Pi then
                Ssta.forward_gate c ~delay ~arr:want sc' ~dst:want gid gid)
            level;
          Ssta.forward_batch c ~delay ~arr:got sc ~dst:got ~staged:false level 0
            (Array.length level))
        (Circuit.levels c);
      fail "forward sweep" n 0 want got;
      (* and with each slot holding its gate's delay until the gate's
         step replaces it, as [Ssta.analyze] runs *)
      let want = copy delay and got = copy delay in
      Array.iter
        (fun level ->
          Array.iter
            (fun gid ->
              if (Circuit.gate c gid).Circuit.kind <> Cell_kind.Pi then
                Ssta.forward_gate c ~delay:want ~arr:want sc' ~dst:want gid gid)
            level;
          Ssta.forward_batch c ~delay:got ~arr:got sc ~dst:got ~staged:false level 0
            (Array.length level))
        (Circuit.levels c);
      fail "forward sweep in one arena" n 0 want got;
      let want = copy bwd and got = copy bwd in
      let levels = Circuit.levels c in
      for li = Array.length levels - 1 downto 0 do
        let level = levels.(li) in
        Array.iter
          (fun gid -> ignore (Ssta.bwd_gate c ~delay ~bwd:want sc' ~dst:want gid gid))
          level;
        Ssta.backward_batch c ~delay ~bwd:got sc ~dst:got ~staged:false ~live:[||] level 0
          (Array.length level)
      done;
      fail "backward sweep" n 0 want got)
    [ 34; 5 ]

let suite =
  let qc = List.map QCheck_alcotest.to_alcotest in
  [
    ( "ssta.lanes",
      [
        Alcotest.test_case "max2_rows4 every kind in every lane" `Quick
          test_max_lanes_all_kinds;
        Alcotest.test_case "erfc4 and normal_cdf4 = scalar at the edges" `Quick
          test_erfc_phi_lanes;
        Alcotest.test_case "add_moments_rows4 = add_moments_rows" `Quick test_moments_lanes;
        Alcotest.test_case "level batches = per-gate kernels" `Quick test_level_batches;
      ]
      @ qc [ prop_max_lanes 34; prop_max_lanes 5 ] );
  ]
