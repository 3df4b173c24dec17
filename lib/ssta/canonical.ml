module Special = Sl_util.Special

type t = { mean : float; coeffs : float array; rnd : float }

let make ~mean ~coeffs ~rnd =
  if rnd < 0.0 then invalid_arg "Canonical.make: negative rnd";
  { mean; coeffs; rnd }

let constant ~num_pcs x = { mean = x; coeffs = Array.make num_pcs 0.0; rnd = 0.0 }
let num_pcs t = Array.length t.coeffs

(* ---------------- the kernel ----------------

   An operand is raw: its mean, its independent remainder, and its PC
   coefficients at [co.(off) .. co.(off + np - 1)] — a record passes its
   fields, a row its words.  A result is written as a row of [d] at [r]:
   d.(r) = mean, d.(r + 1) = rnd, coefficients from d.(r + 2).  The sum,
   the variance and the Clark max below are the only implementations:
   the record operations and every SSTA engine run them, so a form
   computed through either path is the same IEEE word.  The kernels are
   inlined into their two callers each, so no float crosses a call
   boundary boxed.  Results are stored last, so the destination row may
   be the first operand's.  [add_moments_rows] (rows, below) is the sum
   and its variance fused for the per-gate path moments: the same
   operations in the same order. *)

let row_width np = np + 2

let[@inline] variance_raw ~np rnd (co : float array) off =
  let acc = ref (rnd *. rnd) in
  for k = off to off + np - 1 do
    let c = co.(k) in
    acc := !acc +. (c *. c)
  done;
  !acc

let[@inline] add_raw ~np am ar (ac : float array) ao bm br (bc : float array) bo
    (d : float array) r =
  for k = 0 to np - 1 do
    d.(r + 2 + k) <- ac.(ao + k) +. bc.(bo + k)
  done;
  d.(r) <- am +. bm;
  d.(r + 1) <- sqrt ((ar *. ar) +. (br *. br))

type frame = float array

let frame () = Array.make 8 0.0

(* Clark's max re-linearized onto the shared basis: sigma of each operand
   (rnd² then the squared coefficients in index order), the covariance in
   index order, Clark's moments, the tightness-weighted blend of the
   coefficients, and the remainder from the variance the blend leaves
   unexplained.  The three sums share one pass over the coefficients;
   each is still its own accumulator in index order, so the words are
   those of [variance_raw] twice and a separate covariance loop. *)
let[@inline] max2_raw (f : frame) ~np am ar (ac : float array) ao bm br
    (bc : float array) bo (d : float array) r =
  let va = ref (ar *. ar) and vb = ref (br *. br) and cov = ref 0.0 in
  for k = 0 to np - 1 do
    let x = ac.(ao + k) and y = bc.(bo + k) in
    va := !va +. (x *. x);
    vb := !vb +. (y *. y);
    cov := !cov +. (x *. y)
  done;
  let sa = sqrt !va and sb = sqrt !vb in
  let rho = if sa > 0.0 && sb > 0.0 then !cov /. (sa *. sb) else 0.0 in
  f.(0) <- am;
  f.(1) <- sa;
  f.(2) <- bm;
  f.(3) <- sb;
  f.(4) <- rho;
  Special.clark_max_into f;
  let t = f.(7) in
  let u = 1.0 -. t in
  let explained = ref 0.0 in
  for k = 0 to np - 1 do
    let c = (t *. ac.(ao + k)) +. (u *. bc.(bo + k)) in
    d.(r + 2 + k) <- c;
    explained := !explained +. (c *. c)
  done;
  d.(r) <- f.(5);
  d.(r + 1) <- sqrt (Float.max 0.0 (f.(6) -. !explained))

(* ---------------- rows ---------------- *)

let of_row ~np (d : float array) r =
  { mean = d.(r); coeffs = Array.sub d (r + 2) np; rnd = d.(r + 1) }

let to_row t (d : float array) r =
  d.(r) <- t.mean;
  d.(r + 1) <- t.rnd;
  Array.blit t.coeffs 0 d (r + 2) (Array.length t.coeffs)

let add_rows ~np (a : float array) ao (b : float array) bo d r =
  let am = a.(ao) and ar = a.(ao + 1) and bm = b.(bo) and br = b.(bo + 1) in
  add_raw ~np am ar a (ao + 2) bm br b (bo + 2) d r

let max2_rows f ~np (a : float array) ao (b : float array) bo d r =
  let am = a.(ao) and ar = a.(ao + 1) and bm = b.(bo) and br = b.(bo + 1) in
  max2_raw f ~np am ar a (ao + 2) bm br b (bo + 2) d r

let sigma_row ~np (a : float array) ao = sqrt (variance_raw ~np a.(ao + 1) a (ao + 2))

(* [add_rows] then [sigma_row] of the sum in one pass that stores no
   row: the same operations in the same order, so the same words. *)
let add_moments_rows ~np (a : float array) ao (b : float array) bo ~mu ~sigma i =
  let ar = a.(ao + 1) and br = b.(bo + 1) in
  let rnd = sqrt ((ar *. ar) +. (br *. br)) in
  let acc = ref (rnd *. rnd) in
  for k = 2 to np + 1 do
    let c = a.(ao + k) +. b.(bo + k) in
    acc := !acc +. (c *. c)
  done;
  mu.(i) <- a.(ao) +. b.(bo);
  sigma.(i) <- sqrt !acc

(* ---------------- four lanes ----------------

   The Clark max's sums are serial accumulator chains and its Φ is one
   run of erfc's recurrence: a lone max waits on their latency.  The
   lane forms interleave four independent operations' chains, step for
   step in the scalar order ({!Special.clark_max4_into}), so each lane's
   words are its scalar call's. *)

type frame4 = float array

let frame4 () = Array.make 64 0.0

(* Lane [o]'s Clark operands from its sums, as [max2_raw] forms them. *)
let[@inline] clark_operands (f : frame4) o am va bm vb cov =
  let sa = sqrt va and sb = sqrt vb in
  f.(o) <- am;
  f.(o + 1) <- sa;
  f.(o + 2) <- bm;
  f.(o + 3) <- sb;
  f.(o + 4) <- (if sa > 0.0 && sb > 0.0 then cov /. (sa *. sb) else 0.0)

(* [max2_raw] on four lanes: lane l reads the rows of [a] at [ao.(l)]
   and of [b] at [bo.(l)] and writes the row of [d] at [dr.(l)]. *)
let max2_rows4 (f : frame4) ~np (a : float array) (ao : int array) (b : float array)
    (bo : int array) (d : float array) (dr : int array) =
  let a0 = ao.(0) and a1 = ao.(1) and a2 = ao.(2) and a3 = ao.(3) in
  let b0 = bo.(0) and b1 = bo.(1) and b2 = bo.(2) and b3 = bo.(3) in
  let ar0 = a.(a0 + 1) and ar1 = a.(a1 + 1) and ar2 = a.(a2 + 1) and ar3 = a.(a3 + 1) in
  let br0 = b.(b0 + 1) and br1 = b.(b1 + 1) and br2 = b.(b2 + 1) and br3 = b.(b3 + 1) in
  let va0 = ref (ar0 *. ar0) and vb0 = ref (br0 *. br0) and cov0 = ref 0.0 in
  let va1 = ref (ar1 *. ar1) and vb1 = ref (br1 *. br1) and cov1 = ref 0.0 in
  let va2 = ref (ar2 *. ar2) and vb2 = ref (br2 *. br2) and cov2 = ref 0.0 in
  let va3 = ref (ar3 *. ar3) and vb3 = ref (br3 *. br3) and cov3 = ref 0.0 in
  for k = 2 to np + 1 do
    let x0 = a.(a0 + k) and y0 = b.(b0 + k) in
    let x1 = a.(a1 + k) and y1 = b.(b1 + k) in
    let x2 = a.(a2 + k) and y2 = b.(b2 + k) in
    let x3 = a.(a3 + k) and y3 = b.(b3 + k) in
    va0 := !va0 +. (x0 *. x0);
    va1 := !va1 +. (x1 *. x1);
    va2 := !va2 +. (x2 *. x2);
    va3 := !va3 +. (x3 *. x3);
    vb0 := !vb0 +. (y0 *. y0);
    vb1 := !vb1 +. (y1 *. y1);
    vb2 := !vb2 +. (y2 *. y2);
    vb3 := !vb3 +. (y3 *. y3);
    cov0 := !cov0 +. (x0 *. y0);
    cov1 := !cov1 +. (x1 *. y1);
    cov2 := !cov2 +. (x2 *. y2);
    cov3 := !cov3 +. (x3 *. y3)
  done;
  clark_operands f 0 a.(a0) !va0 b.(b0) !vb0 !cov0;
  clark_operands f 16 a.(a1) !va1 b.(b1) !vb1 !cov1;
  clark_operands f 32 a.(a2) !va2 b.(b2) !vb2 !cov2;
  clark_operands f 48 a.(a3) !va3 b.(b3) !vb3 !cov3;
  Special.clark_max4_into f;
  let t0 = f.(7) and t1 = f.(23) and t2 = f.(39) and t3 = f.(55) in
  let u0 = 1.0 -. t0 and u1 = 1.0 -. t1 and u2 = 1.0 -. t2 and u3 = 1.0 -. t3 in
  let d0 = dr.(0) and d1 = dr.(1) and d2 = dr.(2) and d3 = dr.(3) in
  let e0 = ref 0.0 and e1 = ref 0.0 and e2 = ref 0.0 and e3 = ref 0.0 in
  for k = 2 to np + 1 do
    let c0 = (t0 *. a.(a0 + k)) +. (u0 *. b.(b0 + k)) in
    let c1 = (t1 *. a.(a1 + k)) +. (u1 *. b.(b1 + k)) in
    let c2 = (t2 *. a.(a2 + k)) +. (u2 *. b.(b2 + k)) in
    let c3 = (t3 *. a.(a3 + k)) +. (u3 *. b.(b3 + k)) in
    d.(d0 + k) <- c0;
    d.(d1 + k) <- c1;
    d.(d2 + k) <- c2;
    d.(d3 + k) <- c3;
    e0 := !e0 +. (c0 *. c0);
    e1 := !e1 +. (c1 *. c1);
    e2 := !e2 +. (c2 *. c2);
    e3 := !e3 +. (c3 *. c3)
  done;
  d.(d0) <- f.(5);
  d.(d0 + 1) <- sqrt (Float.max 0.0 (f.(6) -. !e0));
  d.(d1) <- f.(21);
  d.(d1 + 1) <- sqrt (Float.max 0.0 (f.(22) -. !e1));
  d.(d2) <- f.(37);
  d.(d2 + 1) <- sqrt (Float.max 0.0 (f.(38) -. !e2));
  d.(d3) <- f.(53);
  d.(d3 + 1) <- sqrt (Float.max 0.0 (f.(54) -. !e3))

let[@inline] rnd_sum (a : float array) (b : float array) o =
  let ar = a.(o + 1) and br = b.(o + 1) in
  sqrt ((ar *. ar) +. (br *. br))

(* [add_moments_rows] on four lanes: lane l reads the rows at index
   [il] of [a] and of [b]. *)
let add_moments_rows4 ~np (a : float array) (b : float array) ~mu ~sigma i0 i1 i2 i3 =
  let w = row_width np in
  let o0 = i0 * w and o1 = i1 * w and o2 = i2 * w and o3 = i3 * w in
  let r0 = rnd_sum a b o0 and r1 = rnd_sum a b o1 in
  let r2 = rnd_sum a b o2 and r3 = rnd_sum a b o3 in
  let acc0 = ref (r0 *. r0) and acc1 = ref (r1 *. r1) in
  let acc2 = ref (r2 *. r2) and acc3 = ref (r3 *. r3) in
  for k = 2 to np + 1 do
    let c0 = a.(o0 + k) +. b.(o0 + k) and c1 = a.(o1 + k) +. b.(o1 + k) in
    let c2 = a.(o2 + k) +. b.(o2 + k) and c3 = a.(o3 + k) +. b.(o3 + k) in
    acc0 := !acc0 +. (c0 *. c0);
    acc1 := !acc1 +. (c1 *. c1);
    acc2 := !acc2 +. (c2 *. c2);
    acc3 := !acc3 +. (c3 *. c3)
  done;
  mu.(i0) <- a.(o0) +. b.(o0);
  sigma.(i0) <- sqrt !acc0;
  mu.(i1) <- a.(o1) +. b.(o1);
  sigma.(i1) <- sqrt !acc1;
  mu.(i2) <- a.(o2) +. b.(o2);
  sigma.(i2) <- sqrt !acc2;
  mu.(i3) <- a.(o3) +. b.(o3);
  sigma.(i3) <- sqrt !acc3

(* ---------------- records ---------------- *)

let variance t = variance_raw ~np:(Array.length t.coeffs) t.rnd t.coeffs 0
let sigma t = sqrt (variance t)

let check_basis a b =
  if Array.length a.coeffs <> Array.length b.coeffs then
    invalid_arg "Canonical: basis-size mismatch"

let add a b =
  check_basis a b;
  let np = num_pcs a in
  let d = Array.make (row_width np) 0.0 in
  add_raw ~np a.mean a.rnd a.coeffs 0 b.mean b.rnd b.coeffs 0 d 0;
  of_row ~np d 0

let covariance a b =
  check_basis a b;
  let acc = ref 0.0 in
  for i = 0 to Array.length a.coeffs - 1 do
    acc := !acc +. (a.coeffs.(i) *. b.coeffs.(i))
  done;
  !acc

let correlation a b =
  let sa = sigma a and sb = sigma b in
  if sa > 0.0 && sb > 0.0 then covariance a b /. (sa *. sb) else 0.0

let tightness a b =
  let mean, _, t =
    Special.clark_max_moments ~mu1:a.mean ~sigma1:(sigma a) ~mu2:b.mean
      ~sigma2:(sigma b) ~rho:(correlation a b)
  in
  ignore mean;
  t

let max2 a b =
  check_basis a b;
  let np = num_pcs a in
  let d = Array.make (row_width np) 0.0 in
  max2_raw (frame ()) ~np a.mean a.rnd a.coeffs 0 b.mean b.rnd b.coeffs 0 d 0;
  of_row ~np d 0

let max_list = function
  | [] -> invalid_arg "Canonical.max_list: empty list"
  | x :: rest -> List.fold_left max2 x rest

let cdf t x =
  let s = sigma t in
  if s <= 0.0 then if x >= t.mean then 1.0 else 0.0
  else Special.normal_cdf ((x -. t.mean) /. s)

let quantile t p =
  let s = sigma t in
  if s <= 0.0 then t.mean else t.mean +. (s *. Special.normal_icdf p)

let eval t ~z ~r =
  if Array.length z <> Array.length t.coeffs then
    invalid_arg "Canonical.eval: PC vector size mismatch";
  let acc = ref t.mean in
  for i = 0 to Array.length z - 1 do
    acc := !acc +. (t.coeffs.(i) *. z.(i))
  done;
  !acc +. (t.rnd *. r)

let pp ppf t =
  Format.fprintf ppf "N(%.4g, %.4g²) [%d PCs, rnd %.4g]" t.mean (sigma t)
    (Array.length t.coeffs) t.rnd
