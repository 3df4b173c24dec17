let sqrt2 = sqrt 2.0
let inv_sqrt_2pi = 1.0 /. sqrt (2.0 *. Float.pi)

(* Chebyshev-fitted erfc (Numerical Recipes style): on [-6, 6] it is
   within 1.2e-14 (relative) of libm's, monotone, and well-behaved in
   both tails.  Tables are module-level: a literal in a function body is
   copied on every call. *)
let erfc_cof =
  [| -1.3026537197817094; 6.4196979235649026e-1; 1.9476473204185836e-2;
     -9.561514786808631e-3; -9.46595344482036e-4; 3.66839497852761e-4;
     4.2523324806907e-5; -2.0278578112534e-5; -1.624290004647e-6;
     1.303655835580e-6; 1.5626441722e-8; -8.5238095915e-8;
     6.529054439e-9; 5.059343495e-9; -9.91364156e-10;
     -2.27365122e-10; 9.6467911e-11; 2.394038e-12;
     -6.886027e-12; 8.94487e-13; 3.13092e-13;
     -1.12708e-13; 3.81e-16; 7.106e-15 |]

(* erfc of [z] >= 0: the 23-step recurrence and the [exp].  erfc(-z) is
   2 - erfc(z), so one run serves both signs of an argument. *)
let[@inline] erfc_nonneg z =
  let t = 2.0 /. (2.0 +. z) in
  let ty = (4.0 *. t) -. 2.0 in
  let d = ref 0.0 and dd = ref 0.0 in
  for j = Array.length erfc_cof - 1 downto 1 do
    let tmp = !d in
    d := (ty *. !d) -. !dd +. erfc_cof.(j);
    dd := tmp
  done;
  t *. exp ((-.z *. z) +. (0.5 *. (erfc_cof.(0) +. (ty *. !d))) -. !dd)

let[@inline] erfc x =
  let ans = erfc_nonneg (Float.abs x) in
  if x >= 0.0 then ans else 2.0 -. ans

let erf x = 1.0 -. erfc x
let[@inline] normal_pdf x = inv_sqrt_2pi *. exp (-0.5 *. x *. x)
let[@inline] normal_cdf x = 0.5 *. erfc (-.x /. sqrt2)

(* Acklam's rational approximation for the probit function, followed by a
   single Halley step against [normal_cdf] that brings the absolute error
   below 1e-12 wherever the CDF itself is representable. *)
let icdf_a =
  [| -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02;
     1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00 |]
and icdf_b =
  [| -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02;
     6.680131188771972e+01; -1.328068155288572e+01 |]
and icdf_c =
  [| -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00;
     -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00 |]
and icdf_d =
  [| 7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00;
     3.754408661907416e+00 |]

let normal_icdf p =
  if not (p > 0.0 && p < 1.0) then
    invalid_arg "Special.normal_icdf: p must lie in (0,1)";
  let a = icdf_a and b = icdf_b and c = icdf_c and d = icdf_d in
  let plow = 0.02425 in
  let x =
    if p < plow then begin
      let q = sqrt (-2.0 *. log p) in
      (((((c.(0) *. q +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q +. c.(5))
      /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0)
    end
    else if p <= 1.0 -. plow then begin
      let q = p -. 0.5 in
      let r = q *. q in
      (((((a.(0) *. r +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4)) *. r +. a.(5)) *. q
      /. (((((b.(0) *. r +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4)) *. r +. 1.0)
    end
    else begin
      let q = sqrt (-2.0 *. log (1.0 -. p)) in
      -.((((((c.(0) *. q +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q +. c.(5))
         /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0))
    end
  in
  (* Halley's method: u = (Φ(x) - p)/φ(x); x ← x - u / (1 + x·u/2). *)
  let e = normal_cdf x -. p in
  let u = e /. normal_pdf x in
  x -. (u /. (1.0 +. (x *. u /. 2.0)))

let log_normal_cdf_tail x =
  if x < 30.0 then log (normal_cdf (-.x))
  else begin
    (* Mills-ratio asymptotics: Φ(-x) = φ(x)/x · (1 - 1/x² + 3/x⁴ - 15/x⁶ …) *)
    let x2 = x *. x in
    let series = 1.0 -. (1.0 /. x2) +. (3.0 /. (x2 *. x2)) -. (15.0 /. (x2 *. x2 *. x2)) in
    (-0.5 *. x2) -. log (x /. inv_sqrt_2pi) +. log series
  end

(* Clark's moments once the operands are read: the degenerate case, and
   the general case given [a], [alpha], [x] = -α/√2 and [e] =
   erfc_nonneg |x| — Φ(α) and Φ(-α) are erfc at x and at -x (IEEE
   negation and division commute exactly), so one recurrence serves
   both: the same words as two [normal_cdf] calls.  A frame's operands
   sit at [o .. o + 4] and its results at [o + 5 .. o + 7]; both the
   scalar form and the lanes below finish through these two. *)
let[@inline] clark_degenerate (f : float array) o =
  (* The two operands are (numerically) the same Gaussian shifted by a
     constant: the max is exactly the larger one. *)
  let mu1 = f.(o) and sigma1 = f.(o + 1) and mu2 = f.(o + 2) and sigma2 = f.(o + 3) in
  if mu1 >= mu2 then begin
    f.(o + 5) <- mu1;
    f.(o + 6) <- sigma1 *. sigma1;
    f.(o + 7) <- 1.0
  end
  else begin
    f.(o + 5) <- mu2;
    f.(o + 6) <- sigma2 *. sigma2;
    f.(o + 7) <- 0.0
  end

let[@inline] clark_general (f : float array) o ~a ~alpha ~x ~e =
  let mu1 = f.(o) and sigma1 = f.(o + 1) and mu2 = f.(o + 2) and sigma2 = f.(o + 3) in
  let t = 0.5 *. (if x >= 0.0 then e else 2.0 -. e) in
  let t' = 0.5 *. (if -.x >= 0.0 then e else 2.0 -. e) in
  let pdf = normal_pdf alpha in
  let mean = (mu1 *. t) +. (mu2 *. t') +. (a *. pdf) in
  let second =
    (((mu1 *. mu1) +. (sigma1 *. sigma1)) *. t)
    +. (((mu2 *. mu2) +. (sigma2 *. sigma2)) *. t')
    +. ((mu1 +. mu2) *. a *. pdf)
  in
  f.(o + 5) <- mean;
  f.(o + 6) <- Float.max 0.0 (second -. (mean *. mean));
  f.(o + 7) <- t

let[@inline] clark_a2 (f : float array) o =
  let sigma1 = f.(o + 1) and sigma2 = f.(o + 3) and rho = f.(o + 4) in
  (sigma1 *. sigma1) +. (sigma2 *. sigma2) -. (2.0 *. rho *. sigma1 *. sigma2)

(* The frame form is the one scalar implementation: its operands and
   results stay in a float array, so a caller in another module passes
   no boxed float and receives no tuple. *)
let clark_max_into (f : float array) =
  let a2 = clark_a2 f 0 in
  if a2 <= 1e-24 then clark_degenerate f 0
  else begin
    let a = sqrt a2 in
    let alpha = (f.(0) -. f.(2)) /. a in
    let x = -.alpha /. sqrt2 in
    clark_general f 0 ~a ~alpha ~x ~e:(erfc_nonneg (Float.abs x))
  end

(* ---------------- four lanes ----------------

   erfc's recurrence is one chain of 23 dependent steps: a call waits on
   its own latency however many independent calls are queued behind it.
   The lane forms run four independent arguments through the scalar
   kernel's operations, in the scalar order, with the four chains
   interleaved step by step, so the core overlaps their latencies and
   every lane's word is the scalar call's. *)

(* [erfc_nonneg] of the words at [f.(o0)] .. [f.(o3)], in place. *)
let[@inline] erfc_nonneg4 (f : float array) o0 o1 o2 o3 =
  let z0 = f.(o0) and z1 = f.(o1) and z2 = f.(o2) and z3 = f.(o3) in
  let t0 = 2.0 /. (2.0 +. z0) and t1 = 2.0 /. (2.0 +. z1)
  and t2 = 2.0 /. (2.0 +. z2) and t3 = 2.0 /. (2.0 +. z3) in
  let ty0 = (4.0 *. t0) -. 2.0 and ty1 = (4.0 *. t1) -. 2.0
  and ty2 = (4.0 *. t2) -. 2.0 and ty3 = (4.0 *. t3) -. 2.0 in
  let d0 = ref 0.0 and dd0 = ref 0.0 and d1 = ref 0.0 and dd1 = ref 0.0 in
  let d2 = ref 0.0 and dd2 = ref 0.0 and d3 = ref 0.0 and dd3 = ref 0.0 in
  for j = Array.length erfc_cof - 1 downto 1 do
    let c = erfc_cof.(j) in
    let p0 = !d0 and p1 = !d1 and p2 = !d2 and p3 = !d3 in
    d0 := (ty0 *. p0) -. !dd0 +. c;
    d1 := (ty1 *. p1) -. !dd1 +. c;
    d2 := (ty2 *. p2) -. !dd2 +. c;
    d3 := (ty3 *. p3) -. !dd3 +. c;
    dd0 := p0;
    dd1 := p1;
    dd2 := p2;
    dd3 := p3
  done;
  let c = erfc_cof.(0) in
  f.(o0) <- t0 *. exp ((-.z0 *. z0) +. (0.5 *. (c +. (ty0 *. !d0))) -. !dd0);
  f.(o1) <- t1 *. exp ((-.z1 *. z1) +. (0.5 *. (c +. (ty1 *. !d1))) -. !dd1);
  f.(o2) <- t2 *. exp ((-.z2 *. z2) +. (0.5 *. (c +. (ty2 *. !d2))) -. !dd2);
  f.(o3) <- t3 *. exp ((-.z3 *. z3) +. (0.5 *. (c +. (ty3 *. !d3))) -. !dd3)

let erfc4 (f : float array) =
  for l = 0 to 3 do
    f.(4 + l) <- Float.abs f.(l)
  done;
  erfc_nonneg4 f 4 5 6 7;
  for l = 0 to 3 do
    let ans = f.(4 + l) in
    f.(l) <- (if f.(l) >= 0.0 then ans else 2.0 -. ans)
  done

let normal_cdf4 (f : float array) =
  for l = 0 to 3 do
    let x = -.f.(l) /. sqrt2 in
    f.(l) <- x;
    f.(4 + l) <- Float.abs x
  done;
  erfc_nonneg4 f 4 5 6 7;
  for l = 0 to 3 do
    let ans = f.(4 + l) in
    f.(l) <- 0.5 *. (if f.(l) >= 0.0 then ans else 2.0 -. ans)
  done

(* Lane l's frame is [f.(16 l) .. f.(16 l + 15)]: the scalar frame's
   eight words, then a², a, α, x and erfc's argument (its result once
   the recurrence has run).  A degenerate lane runs the recurrence on 0
   and ignores it. *)
let lane = 16

let clark_max4_into (f : float array) =
  for l = 0 to 3 do
    let o = lane * l in
    let a2 = clark_a2 f o in
    f.(o + 8) <- a2;
    if a2 <= 1e-24 then f.(o + 12) <- 0.0
    else begin
      let a = sqrt a2 in
      let alpha = (f.(o) -. f.(o + 2)) /. a in
      let x = -.alpha /. sqrt2 in
      f.(o + 9) <- a;
      f.(o + 10) <- alpha;
      f.(o + 11) <- x;
      f.(o + 12) <- Float.abs x
    end
  done;
  erfc_nonneg4 f 12 (lane + 12) ((2 * lane) + 12) ((3 * lane) + 12);
  for l = 0 to 3 do
    let o = lane * l in
    if f.(o + 8) <= 1e-24 then clark_degenerate f o
    else
      clark_general f o ~a:f.(o + 9) ~alpha:f.(o + 10) ~x:f.(o + 11) ~e:f.(o + 12)
  done

let clark_max_moments ~mu1 ~sigma1 ~mu2 ~sigma2 ~rho =
  let f = [| mu1; sigma1; mu2; sigma2; rho; 0.0; 0.0; 0.0 |] in
  clark_max_into f;
  (f.(5), f.(6), f.(7))
