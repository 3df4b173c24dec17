open Sl_util

let feq ?(eps = 1e-9) a b =
  Float.abs (a -. b) <= eps *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let check_float ?(eps = 1e-9) msg expected actual =
  if not (feq ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ---------- Rng ---------- *)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.bits64 a) (Rng.bits64 b) then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_int_range () =
  let r = Rng.create 3 in
  for _ = 1 to 10_000 do
    let x = Rng.int r 17 in
    if x < 0 || x >= 17 then Alcotest.failf "Rng.int out of range: %d" x
  done

let test_rng_int_uniformity () =
  let r = Rng.create 11 in
  let counts = Array.make 8 0 in
  let n = 80_000 in
  for _ = 1 to n do
    let x = Rng.int r 8 in
    counts.(x) <- counts.(x) + 1
  done;
  let expect = float_of_int n /. 8.0 in
  Array.iteri
    (fun i c ->
      let dev = Float.abs (float_of_int c -. expect) /. expect in
      if dev > 0.05 then Alcotest.failf "bucket %d deviates %.3f" i dev)
    counts

let test_rng_uniform_open () =
  let r = Rng.create 5 in
  for _ = 1 to 10_000 do
    let u = Rng.uniform r in
    if not (u > 0.0 && u < 1.0) then Alcotest.failf "uniform out of (0,1): %g" u
  done

let test_rng_gaussian_moments () =
  let r = Rng.create 13 in
  let n = 200_000 in
  let acc = Stats.Acc.create () in
  for _ = 1 to n do
    Stats.Acc.add acc (Rng.gaussian r)
  done;
  if Float.abs (Stats.Acc.mean acc) > 0.01 then
    Alcotest.failf "gaussian mean too far from 0: %g" (Stats.Acc.mean acc);
  if Float.abs (Stats.Acc.variance acc -. 1.0) > 0.02 then
    Alcotest.failf "gaussian variance too far from 1: %g" (Stats.Acc.variance acc)

let test_rng_split_independent () =
  let parent = Rng.create 99 in
  let child = Rng.split parent in
  let xs = Array.init 2000 (fun _ -> Rng.gaussian parent) in
  let ys = Array.init 2000 (fun _ -> Rng.gaussian child) in
  let rho = Stats.correlation xs ys in
  if Float.abs rho > 0.08 then Alcotest.failf "split streams correlate: %g" rho

let test_rng_int_nonpositive () =
  (* regression: this used to be a bare [assert], erased under -noassert,
     after which the rejection loop never terminated *)
  let r = Rng.create 3 in
  List.iter
    (fun n ->
      match Rng.int r n with
      | _ -> Alcotest.failf "Rng.int %d should raise" n
      | exception Invalid_argument _ -> ())
    [ 0; -1; -17 ]

let test_rng_stream_zero_is_create () =
  let a = Rng.create 42 and b = Rng.stream ~seed:42 0 in
  for _ = 1 to 64 do
    Alcotest.(check int64) "stream 0 = create" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_streams_independent () =
  let a = Rng.stream ~seed:42 1 and b = Rng.stream ~seed:42 2 in
  let xs = Array.init 2000 (fun _ -> Rng.gaussian a) in
  let ys = Array.init 2000 (fun _ -> Rng.gaussian b) in
  let rho = Stats.correlation xs ys in
  if Float.abs rho > 0.08 then Alcotest.failf "streams correlate: %g" rho

(* Bit pins of the generator: the first 8 raw words and then 8 Gaussian
   bit patterns.  Every Monte-Carlo, yield and ABB number is a function
   of these streams, so a change to the state layout must leave them
   exactly as they are. *)
let rng_words rng =
  let bits = Array.init 8 (fun _ -> Rng.bits64 rng) in
  let gauss = Array.init 8 (fun _ -> Int64.bits_of_float (Rng.gaussian rng)) in
  Array.to_list (Array.append bits gauss)

let words_digest ws =
  Digest.to_hex (Digest.string (String.concat "," (List.map Int64.to_string ws)))

let test_rng_bit_pins () =
  Alcotest.(check (list int64))
    "create 42"
    [
      0xd0764d4f4476689fL; 0x519e4174576f3791L; 0xfbe07cfb0c24ed8cL; 0xb37d9f600cd835b8L;
      0xcb231c3874846a73L; 0x968d9f004e50de7dL; 0x201718ff221a3556L; 0x9ae94e070ed8cb46L;
      0x3fc91df36fc7a31dL; 0x3ff2752c5c480a10L; 0x3fc9f8e83e100ac6L; 0xbfdf0e22e3f6478bL;
      0xc001eea5740e03d7L; 0x3ff105abe3544717L; 0x4003a5fb48b98253L; 0xbff0fce56bfd47b4L;
    ]
    (rng_words (Rng.create 42));
  Alcotest.(check (list int64))
    "stream 42 3"
    [
      0xaad44ac6eb9a0806L; 0x62dd5b2c705e3012L; 0x31899b2a9d2e97f8L; 0x79a9cb16e5740569L;
      0x194fc04d3052c2eaL; 0x91c493c360573884L; 0x60fde130cf16017bL; 0x2559e0ffdb28aae3L;
      0xbfb4395c405b08ecL; 0x3ff4f411a3fa6bd8L; 0xbfe33e4a08a33d1aL; 0x3fec7cce51e8ea92L;
      0x3ff33c5ac5c151d5L; 0xbfd13c7d3648569fL; 0x400072ee6382bf79L; 0x3ff607868fa38e65L;
    ]
    (rng_words (Rng.stream ~seed:42 3));
  (* a copy taken with a spare deviate pending continues exactly as the
     original *)
  let r = Rng.create 42 in
  for _ = 1 to 3 do
    ignore (Rng.gaussian r)
  done;
  let c = Rng.copy r in
  let wc = rng_words c in
  Alcotest.(check (list int64)) "copy = original" (rng_words r) wc;
  Alcotest.(check string) "after copy" "966daeee2e97e4039a1757da31dd2220" (words_digest wc);
  (* split draws one raw word from the parent; the parent's pending
     spare survives, the child starts without one *)
  let r = Rng.create 42 in
  ignore (Rng.gaussian r);
  let child = Rng.split r in
  Alcotest.(check string) "split child" "3a102a77f8c3ffe4af7cf23fce7e8973" (words_digest (rng_words child));
  Alcotest.(check string) "split parent" "66f56a7ad7fe16b3bfca7ac024a85d61" (words_digest (rng_words r))

(* The bulk draw against successive [Rng.gaussian] calls on a copy of
   the generator: with and without a pending spare at entry, odd and even
   lengths, length 0 and a non-zero offset, then the next draw after it.
   Slots outside the range stay as they were. *)
let test_rng_gaussian_fill_matches_gaussian () =
  let bits = Int64.bits_of_float in
  List.iter
    (fun (spare, pos, len) ->
      let r = Rng.create 11 in
      for _ = 1 to (if spare then 3 else 2) do
        ignore (Rng.gaussian r)
      done;
      let ref_r = Rng.copy r in
      let a = Array.make (pos + len + 2) Float.nan in
      Rng.gaussian_fill r a pos len;
      let tag = Printf.sprintf "spare %b, pos %d, len %d" spare pos len in
      Array.iteri
        (fun i x ->
          let expected = if i >= pos && i < pos + len then Rng.gaussian ref_r else Float.nan in
          if bits x <> bits expected then
            Alcotest.failf "%s: slot %d is %h, successive calls give %h" tag i x expected)
        a;
      Alcotest.(check int64) (tag ^ ": next gaussian") (bits (Rng.gaussian ref_r))
        (bits (Rng.gaussian r)))
    (List.concat_map
       (fun spare ->
         List.concat_map (fun pos -> List.map (fun len -> (spare, pos, len)) [ 0; 1; 2; 5; 8; 33 ])
           [ 0; 3 ])
       [ false; true ]);
  let r = Rng.create 11 and ref_r = Rng.create 11 in
  let v = Rng.gaussian_vector r 7 in
  Array.iter (fun x -> Alcotest.(check int64) "gaussian_vector" (bits (Rng.gaussian ref_r)) (bits x)) v;
  List.iter
    (fun (pos, len) ->
      match Rng.gaussian_fill r (Array.make 4 0.0) pos len with
      | () -> Alcotest.failf "gaussian_fill pos %d len %d should raise" pos len
      | exception Invalid_argument _ -> ())
    [ (-1, 1); (0, -1); (3, 2); (5, 0) ]

let test_rng_shuffle_permutes () =
  let r = Rng.create 21 in
  let a = Array.init 50 Fun.id in
  let b = Array.copy a in
  Rng.shuffle r b;
  let sb = Array.copy b in
  Array.sort Int.compare sb;
  Alcotest.(check (array int)) "same multiset" a sb;
  Alcotest.(check bool) "actually permuted" true (b <> a)

(* ---------- Special ---------- *)

let test_erf_known_values () =
  (* reference values from tables *)
  check_float ~eps:1e-6 "erf 0" 0.0 (Special.erf 0.0);
  check_float ~eps:1e-6 "erf 1" 0.8427007929 (Special.erf 1.0);
  check_float ~eps:1e-6 "erf 2" 0.9953222650 (Special.erf 2.0);
  check_float ~eps:1e-6 "erf -1" (-0.8427007929) (Special.erf (-1.0))

let test_erfc_symmetry () =
  List.iter
    (fun x ->
      check_float ~eps:1e-6 "erfc(x) + erfc(-x) = 2" 2.0
        (Special.erfc x +. Special.erfc (-.x)))
    [ 0.0; 0.3; 1.0; 2.5; 5.0 ]

(* The Chebyshev erfc against libm on a fine grid: [normal_icdf]'s Halley
   step is only as good as the CDF it polishes against. *)
let test_erfc_matches_libm () =
  let worst = ref 0.0 and at = ref 0.0 in
  for i = 0 to 12_000 do
    let x = -6.0 +. (float_of_int i /. 1000.0) in
    let r = Float.erfc x in
    let gap = Float.abs (Special.erfc x -. r) /. r in
    if gap > !worst then begin
      worst := gap;
      at := x
    end
  done;
  if !worst > 1e-13 then
    Alcotest.failf "erfc is %.3g (relative) from Float.erfc at %g" !worst !at

let test_normal_cdf_values () =
  check_float ~eps:1e-7 "Phi 0" 0.5 (Special.normal_cdf 0.0);
  check_float ~eps:1e-6 "Phi 1.6449" 0.95 (Special.normal_cdf 1.6448536269514722);
  check_float ~eps:1e-6 "Phi 2.3263" 0.99 (Special.normal_cdf 2.3263478740408408);
  check_float ~eps:1e-6 "Phi -1" 0.15865525393145707 (Special.normal_cdf (-1.0))

let test_icdf_roundtrip () =
  List.iter
    (fun p ->
      let x = Special.normal_icdf p in
      check_float ~eps:1e-9 (Printf.sprintf "Phi(Phi^-1(%g))" p) p (Special.normal_cdf x))
    [ 1e-9; 1e-4; 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 0.9999; 1.0 -. 1e-9 ]

let test_icdf_invalid () =
  List.iter
    (fun p ->
      match Special.normal_icdf p with
      | _ -> Alcotest.failf "normal_icdf %g should raise" p
      | exception Invalid_argument _ -> ())
    [ 0.0; 1.0; -0.5; 2.0 ]

let test_log_tail_matches_direct () =
  List.iter
    (fun x ->
      let direct = log (Special.normal_cdf (-.x)) in
      let v = Special.log_normal_cdf_tail x in
      check_float ~eps:1e-6 (Printf.sprintf "log tail at %g" x) direct v)
    [ 1.0; 3.0; 8.0; 20.0 ]

let test_log_tail_extreme () =
  (* At x = 40 the direct CDF underflows; the asymptotic value must still
     be finite and close to -x^2/2. *)
  let v = Special.log_normal_cdf_tail 40.0 in
  Alcotest.(check bool) "finite" true (Float.is_finite v);
  Alcotest.(check bool) "roughly -x^2/2" true (v < -780.0 && v > -812.0)

let test_clark_independent_standard () =
  (* E[max(Z1,Z2)] = 1/sqrt(pi) for independent standard normals. *)
  let mean, var, t =
    Special.clark_max_moments ~mu1:0.0 ~sigma1:1.0 ~mu2:0.0 ~sigma2:1.0 ~rho:0.0
  in
  check_float ~eps:1e-9 "mean" (1.0 /. sqrt Float.pi) mean;
  check_float ~eps:1e-9 "var" (1.0 -. (1.0 /. Float.pi)) var;
  check_float ~eps:1e-9 "tightness" 0.5 t

let test_clark_dominant_operand () =
  (* A far-dominant operand makes max ~ that operand. *)
  let mean, var, t =
    Special.clark_max_moments ~mu1:100.0 ~sigma1:2.0 ~mu2:0.0 ~sigma2:3.0 ~rho:0.0
  in
  check_float ~eps:1e-6 "mean" 100.0 mean;
  check_float ~eps:1e-6 "var" 4.0 var;
  check_float ~eps:1e-9 "tightness" 1.0 t

let test_clark_degenerate_equal () =
  let mean, var, t =
    Special.clark_max_moments ~mu1:3.0 ~sigma1:1.0 ~mu2:1.0 ~sigma2:1.0 ~rho:1.0
  in
  check_float ~eps:1e-12 "mean" 3.0 mean;
  check_float ~eps:1e-12 "var" 1.0 var;
  check_float ~eps:1e-12 "tightness" 1.0 t

(* [clark_max_into] shares one erfc recurrence between Φ(α) and Φ(-α);
   the reference is Clark's formulas with two [normal_cdf] calls.  Random
   frames, then α = +0 and -0, |α| >= 40 and the a² <= 1e-24 branch,
   each compared word for word. *)
let clark_reference f =
  let mu1 = f.(0) and sigma1 = f.(1) and mu2 = f.(2) and sigma2 = f.(3) and rho = f.(4) in
  let a2 = (sigma1 *. sigma1) +. (sigma2 *. sigma2) -. (2.0 *. rho *. sigma1 *. sigma2) in
  if a2 <= 1e-24 then
    if mu1 >= mu2 then [| mu1; sigma1 *. sigma1; 1.0 |] else [| mu2; sigma2 *. sigma2; 0.0 |]
  else begin
    let a = sqrt a2 in
    let alpha = (mu1 -. mu2) /. a in
    let t = Special.normal_cdf alpha and t' = Special.normal_cdf (-.alpha) in
    let pdf = Special.normal_pdf alpha in
    let mean = (mu1 *. t) +. (mu2 *. t') +. (a *. pdf) in
    let second =
      (((mu1 *. mu1) +. (sigma1 *. sigma1)) *. t)
      +. (((mu2 *. mu2) +. (sigma2 *. sigma2)) *. t')
      +. ((mu1 +. mu2) *. a *. pdf)
    in
    [| mean; Float.max 0.0 (second -. (mean *. mean)); t |]
  end

let test_clark_into_matches_reference () =
  let r = Rng.create 19 in
  let random () =
    [| Rng.float r 4.0 -. 2.0; Rng.float r 1.5; Rng.float r 4.0 -. 2.0; Rng.float r 1.5;
       Rng.float r 2.0 -. 1.0 |]
  in
  let cases =
    List.init 2000 (fun i -> (Printf.sprintf "random %d" i, random ()))
    @ [
        ("alpha +0", [| 1.0; 0.5; 1.0; 0.3; 0.2 |]);
        ("alpha -0", [| -0.0; 0.5; 0.0; 0.3; 0.2 |]);
        ("alpha 50", [| 51.0; 0.6; 1.0; 0.8; 0.0 |]);
        ("alpha -50", [| 1.0; 0.6; 51.0; 0.8; 0.0 |]);
        ("alpha 40", [| 40.0; 1.0; 0.0; 0.0; 0.0 |]);
        ("a2 = 0, mu1 > mu2", [| 3.0; 1.0; 1.0; 1.0; 1.0 |]);
        ("a2 = 0, mu1 < mu2", [| 1.0; 1.0; 3.0; 1.0; 1.0 |]);
        ("a2 tiny", [| 2.0; 1e-13; 2.5; 0.0; 0.0 |]);
      ]
  in
  List.iter
    (fun (tag, ops) ->
      let f = Array.append ops [| 0.0; 0.0; 0.0 |] in
      Special.clark_max_into f;
      let expected = clark_reference ops in
      Array.iteri
        (fun k name ->
          if Int64.bits_of_float f.(5 + k) <> Int64.bits_of_float expected.(k) then
            Alcotest.failf "%s: %s %h, reference %h" tag name f.(5 + k) expected.(k))
        [| "mean"; "variance"; "tightness" |])
    cases

let test_clark_vs_monte_carlo () =
  let mu1 = 1.0 and sigma1 = 0.5 and mu2 = 1.2 and sigma2 = 0.3 and rho = 0.4 in
  let mean, var, _ = Special.clark_max_moments ~mu1 ~sigma1 ~mu2 ~sigma2 ~rho in
  let r = Rng.create 8 in
  let acc = Stats.Acc.create () in
  for _ = 1 to 200_000 do
    let z1 = Rng.gaussian r in
    let zc = Rng.gaussian r in
    let z2 = (rho *. z1) +. (sqrt (1.0 -. (rho *. rho)) *. zc) in
    Stats.Acc.add acc (Float.max (mu1 +. (sigma1 *. z1)) (mu2 +. (sigma2 *. z2)))
  done;
  if Float.abs (Stats.Acc.mean acc -. mean) > 0.005 then
    Alcotest.failf "Clark mean %.4f vs MC %.4f" mean (Stats.Acc.mean acc);
  if Float.abs (Stats.Acc.variance acc -. var) > 0.005 then
    Alcotest.failf "Clark var %.4f vs MC %.4f" var (Stats.Acc.variance acc)

(* ---------- Stats ---------- *)

let test_stats_basic () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "mean" 3.0 (Stats.mean xs);
  check_float "variance" 2.5 (Stats.variance xs);
  check_float "std" (sqrt 2.5) (Stats.std xs)

let test_stats_quantile () =
  let xs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  check_float "median" 3.0 (Stats.quantile xs 0.5);
  check_float "q0" 1.0 (Stats.quantile xs 0.0);
  check_float "q1" 5.0 (Stats.quantile xs 1.0);
  check_float "q.25" 2.0 (Stats.quantile xs 0.25);
  (* does not mutate *)
  Alcotest.(check (array (float 0.0))) "input intact" [| 5.0; 1.0; 3.0; 2.0; 4.0 |] xs

let test_stats_acc_matches_batch () =
  let r = Rng.create 17 in
  let xs = Array.init 1000 (fun _ -> Rng.gaussian r) in
  let acc = Stats.Acc.create () in
  Array.iter (Stats.Acc.add acc) xs;
  check_float ~eps:1e-9 "mean" (Stats.mean xs) (Stats.Acc.mean acc);
  check_float ~eps:1e-9 "variance" (Stats.variance xs) (Stats.Acc.variance acc)

let test_stats_acc_stderr_ci () =
  let acc = Stats.Acc.create () in
  Alcotest.(check (float 0.0)) "stderr of empty acc" 0.0 (Stats.Acc.stderr acc);
  Array.iter (Stats.Acc.add acc) (Array.init 400 (fun i -> float_of_int (i mod 2)));
  (* 200 zeros + 200 ones: mean 1/2, sample std ~0.5006, stderr std/20 *)
  check_float ~eps:1e-9 "stderr" (Stats.Acc.std acc /. 20.0) (Stats.Acc.stderr acc);
  let lo, hi = Stats.Acc.ci acc in
  check_float ~eps:1e-6 "ci centered" (Stats.Acc.mean acc) (0.5 *. (lo +. hi));
  check_float ~eps:1e-6 "ci 95% width"
    (2.0 *. 1.959964 *. Stats.Acc.stderr acc)
    (hi -. lo);
  let lo99, hi99 = Stats.Acc.ci ~level:0.99 acc in
  Alcotest.(check bool) "wider at 99%" true (hi99 -. lo99 > hi -. lo);
  match Stats.Acc.ci ~level:1.5 acc with
  | _ -> Alcotest.fail "level 1.5 accepted"
  | exception Invalid_argument _ -> ()

let test_stats_wacc_unit_weights () =
  (* with all weights 1 the weighted accumulator degenerates to Welford
     (population-normalized variance) *)
  let r = Rng.create 23 in
  let xs = Array.init 500 (fun _ -> Rng.gaussian r) in
  let acc = Stats.Acc.create () and w = Stats.Wacc.create () in
  Array.iter
    (fun x ->
      Stats.Acc.add acc x;
      Stats.Wacc.add w ~w:1.0 x)
    xs;
  check_float ~eps:1e-9 "mean" (Stats.Acc.mean acc) (Stats.Wacc.mean w);
  check_float ~eps:1e-9 "variance"
    (Stats.Acc.variance acc *. 499.0 /. 500.0)
    (Stats.Wacc.variance w);
  check_float ~eps:1e-12 "mean weight" 1.0 (Stats.Wacc.mean_weight w);
  check_float ~eps:1e-9 "ess = n" 500.0 (Stats.Wacc.ess w)

let test_stats_wacc_degenerate_weights () =
  let w = Stats.Wacc.create () in
  Stats.Wacc.add w ~w:1000.0 5.0;
  for _ = 1 to 99 do
    Stats.Wacc.add w ~w:0.001 0.0
  done;
  (* one dominating weight: ESS collapses toward 1 *)
  Alcotest.(check bool) "ess collapses" true (Stats.Wacc.ess w < 1.01);
  check_float ~eps:1e-3 "mean pulled to heavy point" 5.0 (Stats.Wacc.mean w);
  match Stats.Wacc.add w ~w:(-1.0) 0.0 with
  | () -> Alcotest.fail "negative weight accepted"
  | exception Invalid_argument _ -> ()

let test_stats_empty_raises () =
  List.iter
    (fun (tag, f) ->
      match f [||] with
      | (_ : float) -> Alcotest.failf "%s on [||] should raise" tag
      | exception Invalid_argument _ -> ())
    [
      ("mean", Stats.mean);
      ("variance", Stats.variance);
      ("std", Stats.std);
      ("quantile", fun xs -> Stats.quantile xs 0.5);
    ];
  match Stats.summarize [||] with
  | (_ : Stats.summary) -> Alcotest.fail "summarize on [||] should raise"
  | exception Invalid_argument _ -> ()

let test_stats_nan_rejected () =
  let xs = [| 1.0; Float.nan; 3.0 |] in
  (match Stats.quantile xs 0.5 with
  | (_ : float) -> Alcotest.fail "quantile should reject NaN"
  | exception Invalid_argument _ -> ());
  match Stats.summarize xs with
  | (_ : Stats.summary) -> Alcotest.fail "summarize should reject NaN"
  | exception Invalid_argument _ -> ()

let test_stats_acc_merge_basic () =
  let feed vals =
    let acc = Stats.Acc.create () in
    List.iter (Stats.Acc.add acc) vals;
    acc
  in
  let a = feed [ 1.0; 2.0; 3.0 ] and b = feed [ 10.0; 20.0 ] in
  let m = Stats.Acc.merge a b in
  let whole = feed [ 1.0; 2.0; 3.0; 10.0; 20.0 ] in
  Alcotest.(check int) "count" (Stats.Acc.count whole) (Stats.Acc.count m);
  check_float "mean" (Stats.Acc.mean whole) (Stats.Acc.mean m);
  check_float "variance" (Stats.Acc.variance whole) (Stats.Acc.variance m);
  (* identity on both sides *)
  let e = Stats.Acc.create () in
  check_float "e+a mean" (Stats.Acc.mean a) (Stats.Acc.mean (Stats.Acc.merge e a));
  check_float "a+e mean" (Stats.Acc.mean a) (Stats.Acc.mean (Stats.Acc.merge a e))

let test_stats_correlation_perfect () =
  let xs = Array.init 100 float_of_int in
  let ys = Array.map (fun x -> (2.0 *. x) +. 1.0) xs in
  check_float ~eps:1e-12 "rho=1" 1.0 (Stats.correlation xs ys);
  let ys' = Array.map (fun x -> -.x) xs in
  check_float ~eps:1e-12 "rho=-1" (-1.0) (Stats.correlation xs ys')

let test_stats_summary () =
  let xs = Array.init 101 (fun i -> float_of_int i) in
  let s = Stats.summarize xs in
  check_float "p50" 50.0 s.Stats.p50;
  check_float "p95" 95.0 s.Stats.p95;
  check_float "p99" 99.0 s.Stats.p99;
  check_float "min" 0.0 s.Stats.min;
  check_float "max" 100.0 s.Stats.max

(* ---------- Histogram ---------- *)

let test_histogram_counts () =
  let h = Histogram.build_range ~bins:4 ~lo:0.0 ~hi:4.0 [| 0.5; 1.5; 1.6; 2.5; 3.5; 9.0 |] in
  Alcotest.(check (array int)) "counts" [| 1; 2; 1; 2 |] h.Histogram.counts;
  Alcotest.(check int) "total" 6 h.Histogram.total

let test_histogram_density_integrates () =
  let r = Rng.create 23 in
  let xs = Array.init 5000 (fun _ -> Rng.gaussian r) in
  let h = Histogram.build ~bins:50 xs in
  let sum =
    Array.fold_left (fun acc d -> acc +. (d *. h.Histogram.width)) 0.0 (Histogram.densities h)
  in
  check_float ~eps:1e-9 "densities integrate to 1" 1.0 sum

let test_histogram_merge_associative () =
  let mk xs = Histogram.build_range ~bins:6 ~lo:0.0 ~hi:3.0 xs in
  let a = mk [| 0.1; 0.6; 2.9 |]
  and b = mk [| 1.1; 1.2; -5.0 (* clamps *) |]
  and c = mk [| 2.0; 2.1; 2.2; 99.0 (* clamps *) |] in
  let l = Histogram.merge (Histogram.merge a b) c in
  let r = Histogram.merge a (Histogram.merge b c) in
  Alcotest.(check (array int)) "counts agree" l.Histogram.counts r.Histogram.counts;
  Alcotest.(check int) "totals agree" l.Histogram.total r.Histogram.total;
  Alcotest.(check int) "total = sum of inputs" 10 l.Histogram.total;
  (* commutativity rides along *)
  let s = Histogram.merge b a in
  Alcotest.(check (array int)) "commutes"
    (Histogram.merge a b).Histogram.counts s.Histogram.counts

let test_histogram_merge_mismatch_raises () =
  let a = Histogram.create ~bins:4 ~lo:0.0 ~hi:4.0 in
  let b = Histogram.create ~bins:8 ~lo:0.0 ~hi:4.0 in
  match Histogram.merge a b with
  | _ -> Alcotest.fail "expected Invalid_argument on binning mismatch"
  | exception Invalid_argument _ -> ()

let test_histogram_quantile_edges () =
  (* empty *)
  let empty = Histogram.create ~bins:4 ~lo:0.0 ~hi:4.0 in
  (match Histogram.quantile empty 0.5 with
  | _ -> Alcotest.fail "empty histogram must raise"
  | exception Invalid_argument _ -> ());
  (* p outside [0,1] *)
  let h = Histogram.build_range ~bins:4 ~lo:0.0 ~hi:4.0 [| 1.0; 2.0 |] in
  (match Histogram.quantile h 1.5 with
  | _ -> Alcotest.fail "p > 1 must raise"
  | exception Invalid_argument _ -> ());
  (* single bucket: everything resolves within that bin *)
  let one = Histogram.build_range ~bins:1 ~lo:0.0 ~hi:2.0 [| 0.3; 1.1; 1.9 |] in
  List.iter
    (fun p ->
      let q = Histogram.quantile one p in
      if q < 0.0 || q > 2.0 then Alcotest.failf "q(%g) = %g outside bin" p q)
    [ 0.0; 0.25; 0.5; 1.0 ];
  (* all-equal samples: every quantile lands in the containing bin *)
  let flat = Histogram.build_range ~bins:10 ~lo:0.0 ~hi:10.0 (Array.make 50 4.5) in
  List.iter
    (fun p ->
      let q = Histogram.quantile flat p in
      if q < 4.0 || q > 5.0 then
        Alcotest.failf "all-equal q(%g) = %g escaped the bin" p q)
    [ 0.0; 0.5; 1.0 ];
  check_float "p0 is bin left edge" 4.0 (Histogram.quantile flat 0.0);
  check_float "p1 is bin right edge" 5.0 (Histogram.quantile flat 1.0)

(* cross-domain merge: per-domain histograms reduced pairwise must match
   one histogram fed everything — the same contract Stats.Acc.merge pins,
   exercised through the Parallel worker states, which [init] collects *)
let prop_histogram_merge_matches_single =
  QCheck.Test.make ~name:"Histogram.merge = single histogram" ~count:200
    QCheck.(
      pair
        (array_of_size (Gen.int_range 0 80) (float_range (-2.0) 12.0))
        (int_range 1 4))
    (fun (xs, jobs) ->
      let feed h xs = Array.iter (Histogram.observe h) xs in
      let whole = Histogram.create ~bins:8 ~lo:0.0 ~hi:10.0 in
      feed whole xs;
      let states = ref [] and m = Mutex.create () in
      Parallel.run ~jobs ~tasks:(Array.length xs)
        ~init:(fun () ->
          let h = Histogram.create ~bins:8 ~lo:0.0 ~hi:10.0 in
          Mutex.protect m (fun () -> states := h :: !states);
          h)
        (fun h i -> Histogram.observe h xs.(i));
      let merged =
        List.fold_left Histogram.merge
          (Histogram.create ~bins:8 ~lo:0.0 ~hi:10.0)
          !states
      in
      merged.Histogram.counts = whole.Histogram.counts
      && merged.Histogram.total = whole.Histogram.total)

(* ---------- Matrix ---------- *)

let test_matrix_mul_identity () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let i = Matrix.identity 2 in
  Alcotest.(check (array (array (float 1e-12))))
    "A*I = A" (Matrix.to_arrays a)
    (Matrix.to_arrays (Matrix.mul a i))

let test_matrix_cholesky_roundtrip () =
  let a =
    Matrix.of_arrays
      [| [| 4.0; 2.0; 0.6 |]; [| 2.0; 5.0; 1.0 |]; [| 0.6; 1.0; 3.0 |] |]
  in
  let l = Matrix.cholesky a in
  let llt = Matrix.mul l (Matrix.transpose l) in
  let aa = Matrix.to_arrays a and bb = Matrix.to_arrays llt in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j v -> check_float ~eps:1e-10 (Printf.sprintf "llt %d %d" i j) aa.(i).(j) v)
        row)
    bb

let test_matrix_cholesky_rejects_indefinite () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  match Matrix.cholesky a with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_matrix_triangular_solves () =
  let a =
    Matrix.of_arrays
      [| [| 4.0; 2.0; 0.6 |]; [| 2.0; 5.0; 1.0 |]; [| 0.6; 1.0; 3.0 |] |]
  in
  let x_true = [| 1.0; -2.0; 0.5 |] in
  let b = Matrix.mul_vec a x_true in
  let l = Matrix.cholesky a in
  let y = Matrix.solve_lower l b in
  let x = Matrix.solve_upper (Matrix.transpose l) y in
  Array.iteri
    (fun i v -> check_float ~eps:1e-10 (Printf.sprintf "x %d" i) x_true.(i) v)
    x

(* ---------- Rootfind / Regress ---------- *)

let test_bisect_sqrt2 () =
  let root = Rootfind.bisect (fun x -> (x *. x) -. 2.0) 0.0 2.0 in
  check_float ~eps:1e-9 "sqrt 2" (sqrt 2.0) root

let test_brent_matches_bisect () =
  let f x = cos x -. x in
  let r1 = Rootfind.bisect f 0.0 1.0 in
  let r2 = Rootfind.brent f 0.0 1.0 in
  check_float ~eps:1e-8 "brent = bisect" r1 r2

let test_brent_unbracketed () =
  match Rootfind.brent (fun x -> (x *. x) +. 1.0) (-1.0) 1.0 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_golden_min () =
  let x = Rootfind.golden_min (fun x -> (x -. 1.3) ** 2.0) (-10.0) 10.0 in
  check_float ~eps:1e-6 "argmin" 1.3 x

let test_regress_exact_line () =
  let xs = Array.init 10 float_of_int in
  let ys = Array.map (fun x -> (3.0 *. x) -. 4.0) xs in
  let f = Regress.linear xs ys in
  check_float ~eps:1e-12 "slope" 3.0 f.Regress.slope;
  check_float ~eps:1e-12 "intercept" (-4.0) f.Regress.intercept;
  check_float ~eps:1e-12 "r2" 1.0 f.Regress.r2

let test_regress_loglog_power () =
  let xs = Array.init 20 (fun i -> float_of_int (i + 1)) in
  let ys = Array.map (fun x -> 2.0 *. (x ** 1.5)) xs in
  let f = Regress.loglog xs ys in
  check_float ~eps:1e-9 "exponent" 1.5 f.Regress.slope

let test_polyfit2_exact () =
  let xs = Array.init 10 float_of_int in
  let ys = Array.map (fun x -> 1.0 +. (2.0 *. x) +. (0.5 *. x *. x)) xs in
  let c0, c1, c2 = Regress.polyfit2 xs ys in
  check_float ~eps:1e-8 "c0" 1.0 c0;
  check_float ~eps:1e-8 "c1" 2.0 c1;
  check_float ~eps:1e-8 "c2" 0.5 c2

(* ---------- qcheck properties ---------- *)

let prop_icdf_monotone =
  QCheck.Test.make ~name:"icdf monotone" ~count:500
    QCheck.(pair (float_bound_exclusive 1.0) (float_bound_exclusive 1.0))
    (fun (a, b) ->
      QCheck.assume (a > 0.0 && b > 0.0 && a <> b);
      let lo = Float.min a b and hi = Float.max a b in
      Special.normal_icdf lo <= Special.normal_icdf hi)

let prop_cdf_bounds =
  QCheck.Test.make ~name:"cdf in [0,1]" ~count:1000
    QCheck.(float_range (-50.0) 50.0)
    (fun x ->
      let p = Special.normal_cdf x in
      p >= 0.0 && p <= 1.0)

let prop_quantile_bounds =
  QCheck.Test.make ~name:"quantile within min/max" ~count:300
    QCheck.(pair (array_of_size (Gen.int_range 1 50) (float_range (-1000.0) 1000.0)) (float_range 0.0 1.0))
    (fun (xs, p) ->
      let q = Stats.quantile xs p in
      let mn = Array.fold_left Float.min xs.(0) xs in
      let mx = Array.fold_left Float.max xs.(0) xs in
      q >= mn && q <= mx)

let prop_acc_merge_matches_single =
  (* Chan's combination must agree with feeding everything into one
     accumulator, wherever the split point falls *)
  QCheck.Test.make ~name:"Acc.merge = single accumulator" ~count:300
    QCheck.(
      pair
        (array_of_size (Gen.int_range 0 60) (float_range (-1e6) 1e6))
        (int_bound 60))
    (fun (xs, cut) ->
      let cut = Stdlib.min cut (Array.length xs) in
      let feed lo hi =
        let acc = Stats.Acc.create () in
        for i = lo to hi - 1 do
          Stats.Acc.add acc xs.(i)
        done;
        acc
      in
      let merged = Stats.Acc.merge (feed 0 cut) (feed cut (Array.length xs)) in
      let whole = feed 0 (Array.length xs) in
      let close a b =
        Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))
      in
      Stats.Acc.count merged = Stats.Acc.count whole
      && (Stats.Acc.count whole = 0
          || (close (Stats.Acc.mean merged) (Stats.Acc.mean whole)
             && close (Stats.Acc.variance merged) (Stats.Acc.variance whole))))

let prop_clark_mean_dominates =
  (* E[max(X,Y)] >= max(E X, E Y) *)
  QCheck.Test.make ~name:"clark mean >= max of means" ~count:500
    QCheck.(
      quad (float_range (-5.0) 5.0) (float_range 0.01 3.0) (float_range (-5.0) 5.0)
        (float_range 0.01 3.0))
    (fun (mu1, sigma1, mu2, sigma2) ->
      let mean, _, _ = Special.clark_max_moments ~mu1 ~sigma1 ~mu2 ~sigma2 ~rho:0.3 in
      mean >= Float.max mu1 mu2 -. 1e-9)

(* ---------- Parallel ---------- *)

exception Boom of int

let test_parallel_run_covers () =
  List.iter
    (fun jobs ->
      let hits = Array.make 100 0 in
      Parallel.run ~jobs ~tasks:100 ~init:ignore (fun () i ->
          hits.(i) <- hits.(i) + 1);
      Array.iteri
        (fun i h -> if h <> 1 then Alcotest.failf "index %d hit %d times" i h)
        hits)
    [ 1; 2; 4; 7 ]

(* every task of an outer run runs an inner run: an inner run that finds
   every worker busy with outer tasks must finish on its caller alone,
   and every run must leave the words a jobs-1 run leaves *)
let nested_run_words jobs =
  let words = Array.make (12 * 9) 0.0 in
  Parallel.run ~jobs ~tasks:12 ~init:ignore (fun () i ->
      Parallel.run ~jobs ~tasks:9 ~init:ignore (fun () j ->
          let k = (9 * i) + j in
          words.(k) <- words.(k) +. Stdlib.sin (float_of_int (k + 1))));
  words

let test_parallel_nested_run () =
  let serial = nested_run_words 1 in
  List.iter
    (fun jobs ->
      let words = nested_run_words jobs in
      Array.iteri
        (fun k w ->
          if Int64.bits_of_float w <> Int64.bits_of_float serial.(k) then
            Alcotest.failf "jobs %d: slot %d is %h, jobs 1 left %h" jobs k w
              serial.(k))
        words)
    [ 2; 4 ]

(* two domains running parallel runs at once share the one pool; each
   run still covers its own range exactly once *)
let test_parallel_concurrent_runs () =
  let caller () =
    let hits = Array.make 200 0 in
    for _ = 1 to 20 do
      Parallel.run ~jobs:2 ~tasks:10 ~init:ignore (fun () i ->
          for k = 20 * i to (20 * i) + 19 do
            hits.(k) <- hits.(k) + 1
          done)
    done;
    hits
  in
  let others = Domain.spawn caller in
  let mine = caller () in
  List.iter
    (fun hits ->
      Array.iteri
        (fun k h -> if h <> 20 then Alcotest.failf "slot %d hit %d times" k h)
        hits)
    [ mine; Domain.join others ]

let test_parallel_run_worker_exn () =
  (* a task raising mid-run must surface Parallel.Worker after all
     domains joined — not hang the join, not escape unwrapped *)
  List.iter
    (fun jobs ->
      match
        Parallel.run ~jobs ~tasks:32 ~init:(fun () -> ()) (fun () i ->
            if i = 13 then raise (Boom i))
      with
      | _ -> Alcotest.fail "expected Parallel.Worker"
      | exception Parallel.Worker (Boom 13) -> ()
      | exception Parallel.Worker e ->
        Alcotest.failf "wrapped wrong exception: %s" (Printexc.to_string e))
    [ 2; 4 ];
  (* jobs=1 runs inline: same wrapping contract would be surprising —
     the exception escapes as raised, pin that too *)
  match
    Parallel.run ~jobs:1 ~tasks:4 ~init:(fun () -> ()) (fun () i ->
        if i = 2 then raise (Boom i))
  with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom 2 -> ()
  | exception Parallel.Worker (Boom 2) -> ()
  | exception e -> Alcotest.failf "unexpected: %s" (Printexc.to_string e)

let test_parallel_run_chunks_covers () =
  List.iter
    (fun (jobs, threshold, n) ->
      let hits = Array.make (Stdlib.max n 1) 0 in
      Parallel.run_chunks ~jobs ~threshold ~n
        ~init:(fun () -> ())
        (fun () lo hi ->
          for i = lo to hi - 1 do
            hits.(i) <- hits.(i) + 1
          done);
      for i = 0 to n - 1 do
        if hits.(i) <> 1 then Alcotest.failf "index %d hit %d times" i hits.(i)
      done)
    [ (1, 1, 100); (2, 8, 100); (4, 8, 3); (4, 8, 8); (4, 8, 1000); (3, 1, 7) ]

let test_parallel_run_chunks_worker_exn () =
  match
    Parallel.run_chunks ~jobs:4 ~threshold:1 ~n:64
      ~init:(fun () -> ())
      (fun () lo _hi -> if lo > 0 then raise (Boom lo))
  with
  | () -> Alcotest.fail "expected Parallel.Worker"
  | exception Parallel.Worker (Boom _) -> ()
  | exception e -> Alcotest.failf "unexpected: %s" (Printexc.to_string e)

let test_pool_on_error_once_per_failure () =
  let errors = Atomic.make 0 in
  let ok = Atomic.make 0 in
  let pool =
    Parallel.Pool.create
      ~on_error:(fun e ->
        match e with
        | Boom _ -> Atomic.incr errors
        | e -> raise e)
      ~jobs:2 ()
  in
  for i = 0 to 19 do
    Parallel.Pool.submit pool (fun () ->
        if i mod 5 = 0 then raise (Boom i) else Atomic.incr ok)
  done;
  Parallel.Pool.shutdown pool;
  (* a failing task must invoke on_error exactly once and must not kill
     its worker: every other task still ran *)
  Alcotest.(check int) "on_error once per failed task" 4 (Atomic.get errors);
  Alcotest.(check int) "non-failing tasks all ran" 16 (Atomic.get ok)

let test_pool_submit_after_shutdown () =
  let pool = Parallel.Pool.create ~jobs:1 () in
  Parallel.Pool.shutdown pool;
  Parallel.Pool.shutdown pool (* idempotent *);
  match Parallel.Pool.submit pool (fun () -> ()) with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let suite =
  let qc = List.map QCheck_alcotest.to_alcotest in
  [
    ( "util.parallel",
      [
        Alcotest.test_case "run covers every index once" `Quick
          test_parallel_run_covers;
        Alcotest.test_case "nested runs finish with jobs-1 words" `Quick
          test_parallel_nested_run;
        Alcotest.test_case "concurrent runs from two domains" `Quick
          test_parallel_concurrent_runs;
        Alcotest.test_case "worker exception surfaces" `Quick
          test_parallel_run_worker_exn;
        Alcotest.test_case "run_chunks covers every index once" `Quick
          test_parallel_run_chunks_covers;
        Alcotest.test_case "run_chunks worker exception surfaces" `Quick
          test_parallel_run_chunks_worker_exn;
        Alcotest.test_case "pool on_error once per failed task" `Quick
          test_pool_on_error_once_per_failure;
        Alcotest.test_case "pool submit after shutdown" `Quick
          test_pool_submit_after_shutdown;
      ] );
    ( "util.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
        Alcotest.test_case "int range" `Quick test_rng_int_range;
        Alcotest.test_case "int uniformity" `Quick test_rng_int_uniformity;
        Alcotest.test_case "uniform open interval" `Quick test_rng_uniform_open;
        Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "int rejects non-positive" `Quick test_rng_int_nonpositive;
        Alcotest.test_case "stream 0 is create" `Quick test_rng_stream_zero_is_create;
        Alcotest.test_case "streams independent" `Quick test_rng_streams_independent;
        Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
        Alcotest.test_case "bit pins" `Quick test_rng_bit_pins;
        Alcotest.test_case "gaussian_fill = successive gaussian" `Quick
          test_rng_gaussian_fill_matches_gaussian;
      ] );
    ( "util.special",
      [
        Alcotest.test_case "erf known values" `Quick test_erf_known_values;
        Alcotest.test_case "erfc symmetry" `Quick test_erfc_symmetry;
        Alcotest.test_case "erfc within 1e-13 of libm" `Quick test_erfc_matches_libm;
        Alcotest.test_case "normal cdf values" `Quick test_normal_cdf_values;
        Alcotest.test_case "icdf roundtrip" `Quick test_icdf_roundtrip;
        Alcotest.test_case "icdf invalid input" `Quick test_icdf_invalid;
        Alcotest.test_case "log tail matches direct" `Quick test_log_tail_matches_direct;
        Alcotest.test_case "log tail extreme" `Quick test_log_tail_extreme;
        Alcotest.test_case "clark independent" `Quick test_clark_independent_standard;
        Alcotest.test_case "clark dominant" `Quick test_clark_dominant_operand;
        Alcotest.test_case "clark degenerate" `Quick test_clark_degenerate_equal;
        Alcotest.test_case "clark_max_into = two-cdf reference" `Quick
          test_clark_into_matches_reference;
        Alcotest.test_case "clark vs MC" `Slow test_clark_vs_monte_carlo;
      ]
      @ qc [ prop_icdf_monotone; prop_cdf_bounds; prop_clark_mean_dominates ] );
    ( "util.stats",
      [
        Alcotest.test_case "basic moments" `Quick test_stats_basic;
        Alcotest.test_case "quantile" `Quick test_stats_quantile;
        Alcotest.test_case "acc matches batch" `Quick test_stats_acc_matches_batch;
        Alcotest.test_case "acc stderr and ci" `Quick test_stats_acc_stderr_ci;
        Alcotest.test_case "wacc unit weights" `Quick test_stats_wacc_unit_weights;
        Alcotest.test_case "wacc degenerate weights" `Quick test_stats_wacc_degenerate_weights;
        Alcotest.test_case "empty samples raise" `Quick test_stats_empty_raises;
        Alcotest.test_case "NaN rejected" `Quick test_stats_nan_rejected;
        Alcotest.test_case "acc merge basic" `Quick test_stats_acc_merge_basic;
        Alcotest.test_case "perfect correlation" `Quick test_stats_correlation_perfect;
        Alcotest.test_case "summary" `Quick test_stats_summary;
      ]
      @ qc [ prop_quantile_bounds; prop_acc_merge_matches_single ] );
    ( "util.histogram",
      [
        Alcotest.test_case "counts" `Quick test_histogram_counts;
        Alcotest.test_case "density integrates" `Quick test_histogram_density_integrates;
        Alcotest.test_case "merge associative" `Quick test_histogram_merge_associative;
        Alcotest.test_case "merge mismatch raises" `Quick
          test_histogram_merge_mismatch_raises;
        Alcotest.test_case "quantile edge cases" `Quick test_histogram_quantile_edges;
      ]
      @ qc [ prop_histogram_merge_matches_single ] );
    ( "util.matrix",
      [
        Alcotest.test_case "mul identity" `Quick test_matrix_mul_identity;
        Alcotest.test_case "cholesky roundtrip" `Quick test_matrix_cholesky_roundtrip;
        Alcotest.test_case "cholesky rejects indefinite" `Quick test_matrix_cholesky_rejects_indefinite;
        Alcotest.test_case "triangular solves" `Quick test_matrix_triangular_solves;
      ] );
    ( "util.numerics",
      [
        Alcotest.test_case "bisect sqrt2" `Quick test_bisect_sqrt2;
        Alcotest.test_case "brent matches bisect" `Quick test_brent_matches_bisect;
        Alcotest.test_case "brent unbracketed" `Quick test_brent_unbracketed;
        Alcotest.test_case "golden min" `Quick test_golden_min;
        Alcotest.test_case "regress exact line" `Quick test_regress_exact_line;
        Alcotest.test_case "regress loglog power" `Quick test_regress_loglog_power;
        Alcotest.test_case "polyfit2 exact" `Quick test_polyfit2_exact;
      ] );
  ]
