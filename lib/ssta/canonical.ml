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

let add_const a x = { a with mean = a.mean +. x }

let scale k a =
  { mean = k *. a.mean; coeffs = Array.map (fun c -> k *. c) a.coeffs; rnd = Float.abs k *. a.rnd }

let sub a b = add a (scale (-1.0) b)

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
