(* The state is one unboxed buffer: the four xoshiro256++ words at byte
   offsets 0, 8, 16 and 24, the polar method's spare deviate as its IEEE
   bits at 32, and the has-spare flag at 40.  [Bytes] int64 loads and
   stores compile to plain memory accesses, whereas every store to a
   mutable [int64] record field boxes the word — so a draw allocates at
   most the float it returns. *)
type t = Bytes.t

let spare_off = 32
let flag_off = 40

(* [t] is abstract and only [of_splitmix] and [copy] make one, so every
   buffer is [flag_off + 1] bytes and the fixed offsets above are in
   bounds: the word accesses skip the bounds check, which otherwise
   re-derives the buffer's length at each of a step's eight accesses. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* splitmix64 is the recommended seeder for the xoshiro family: it
   decorrelates consecutive integer seeds and never yields the all-zero
   state forbidden by xoshiro. *)
let splitmix64_next state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* A generator seeded from the next four splitmix64 outputs of [state],
   with no spare deviate pending. *)
let of_splitmix state =
  let t = Bytes.make (flag_off + 1) '\000' in
  for k = 0 to 3 do
    set64 t (8 * k) (splitmix64_next state)
  done;
  t

(* Stream k seeds xoshiro from splitmix64 outputs 4k+1 .. 4k+4 of the
   seed's splitmix sequence (splitmix64_next advances by the golden gamma
   before mixing, so offsetting the state by 4k gammas lands exactly
   there).  Streams therefore consume disjoint, non-overlapping blocks of
   one well-distributed sequence, and stream 0 coincides with [create]. *)
let stream ~seed k =
  of_splitmix
    (ref (Int64.add (Int64.of_int seed) (Int64.mul (Int64.of_int (4 * k)) 0x9E3779B97F4A7C15L)))

let create seed = stream ~seed 0

let[@inline] next t =
  let s0 = get64 t 0 and s1 = get64 t 8 in
  let s2 = get64 t 16 and s3 = get64 t 24 in
  let result = Int64.add (rotl (Int64.add s0 s3) 23) s0 in
  let tmp = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  set64 t 0 s0;
  set64 t 8 s1;
  set64 t 16 (Int64.logxor s2 tmp);
  set64 t 24 (rotl s3 45);
  result

let bits64 t = next t

let split t = of_splitmix (ref (next t))

let copy = Bytes.copy

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling over the top 62 bits avoids modulo bias. *)
  let mask = Int64.shift_right_logical Int64.minus_one 2 in
  let bound = Int64.of_int n in
  let rec loop () =
    let r = Int64.logand (bits64 t) mask in
    let v = Int64.rem r bound in
    if Int64.sub r v > Int64.sub (Int64.logand mask (Int64.neg bound)) bound then loop ()
    else Int64.to_int v
  in
  if n land (n - 1) = 0 then
    Int64.to_int (Int64.logand (bits64 t) (Int64.of_int (n - 1)))
  else loop ()

(* 53 random mantissa bits mapped to [0,1). *)
let[@inline] unit_float t =
  let r = Int64.shift_right_logical (next t) 11 in
  Int64.to_float r *. 0x1.0p-53

let float t x = unit_float t *. x

let rec uniform t =
  let u = unit_float t in
  if u > 0.0 then u else uniform t

(* Marsaglia's polar method.  Its acceptance loop draws (u, v) uniform
   on the square until 0 < s = u² + v² < 1, returns u and parks v in the
   spare slot (the flag stays clear); an accepted pair then scales to the
   two deviates u·m and v·m, m = √(-2 ln s / s). *)
let[@inline] accept t =
  let u = ref 0.0 and v = ref 0.0 and s = ref 1.0 in
  while !s >= 1.0 || !s = 0.0 do
    u := (2.0 *. unit_float t) -. 1.0;
    v := (2.0 *. unit_float t) -. 1.0;
    s := (!u *. !u) +. (!v *. !v)
  done;
  set64 t spare_off (Int64.bits_of_float !v);
  !u

let[@inline] scale u v =
  let s = (u *. u) +. (v *. v) in
  sqrt (-2.0 *. log s /. s)

let[@inline] spare t = Int64.float_of_bits (get64 t spare_off)

(* One accepted pair gives two deviates; the second is parked in the
   state for the next call. *)
let gaussian t =
  if Bytes.get t flag_off = '\000' then begin
    let u = accept t in
    let v = spare t in
    let m = scale u v in
    set64 t spare_off (Int64.bits_of_float (v *. m));
    Bytes.set t flag_off '\001';
    u *. m
  end
  else begin
    Bytes.set t flag_off '\000';
    spare t
  end

(* The words of [len] successive [gaussian] calls: a pending spare first,
   then every pair accepted in stream order into its two slots, then all
   of them scaled in one loop with no branch; an odd last slot takes one
   [gaussian], which parks its pair's second deviate as usual. *)
let gaussian_fill t (a : float array) pos len =
  if pos < 0 || len < 0 || pos > Array.length a - len then
    invalid_arg "Rng.gaussian_fill";
  let stop = pos + len in
  let first =
    if len > 0 && Bytes.get t flag_off = '\001' then begin
      Bytes.set t flag_off '\000';
      a.(pos) <- spare t;
      pos + 1
    end
    else pos
  in
  let last = first + (2 * ((stop - first) / 2)) in
  let i = ref first in
  while !i < last do
    a.(!i) <- accept t;
    a.(!i + 1) <- spare t;
    i := !i + 2
  done;
  i := first;
  while !i < last do
    let u = a.(!i) and v = a.(!i + 1) in
    let m = scale u v in
    a.(!i) <- u *. m;
    a.(!i + 1) <- v *. m;
    i := !i + 2
  done;
  if last < stop then a.(last) <- gaussian t

let gaussian_vector t n =
  let a = Array.make n 0.0 in
  gaussian_fill t a 0 n;
  a

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
