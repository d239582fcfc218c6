/* Per-thread CPU-time sampler, loaded with LD_PRELOAD by cpu_profile.py.
 *
 * Every thread of the profiled process (the main thread from the library
 * constructor, every other one through a pthread_create wrapper) arms a
 * POSIX timer on its own CLOCK_THREAD_CPUTIME_ID that sends it SIGPROF
 * each kPeriodNs of CPU it burns. The handler records the thread id, the
 * interrupted PC, the number of timer periods the signal stands for, the
 * first word near the stack pointer that points into the program's code
 * (the caller of a library leaf such as memcpy or a syscall wrapper) and
 * the frame-pointer chain, bounded by the thread's stack. At exit the samples and a copy of /proc/self/maps
 * are written next to this library as samples.<pid>.bin / .maps, for
 * cpu_profile.py to symbolize.
 *
 * Only the process it is preloaded into is profiled: the constructor
 * removes LD_PRELOAD from the environment, so children do not inherit it.
 * Callers beyond the leaf are only as good as the profiled binary's frame
 * pointers (build it with -fno-omit-frame-pointer).
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <fcntl.h>
#include <link.h>
#include <pthread.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

enum { kMaxFrames = 30, kMaxSamples = 1 << 19 };
static const long kPeriodNs = 1000000; /* 1 ms of thread CPU per sample */

struct sample {
  int32_t tid;
  uint16_t depth;
  /* Timer periods this sample stands for: CPU-time timers fire from the
   * scheduler tick, so one signal may cover several expired periods. */
  uint16_t weight;
  uint64_t pc[kMaxFrames];
};

static struct sample* g_samples;
/* Executable segment of the profiled program, for the leaf-caller scan. */
static uintptr_t g_text_lo;
static uintptr_t g_text_hi;
static atomic_uint g_next;
static atomic_int g_stopped;

static __thread uintptr_t t_stack_lo;
static __thread uintptr_t t_stack_hi;
static __thread int32_t t_tid;
static __thread timer_t t_timer;
static __thread int t_armed;

static void on_prof(int sig, siginfo_t* si, void* ctx) {
  (void)sig;
  if (atomic_load_explicit(&g_stopped, memory_order_relaxed) || !t_armed) {
    return;
  }
  const unsigned i = atomic_fetch_add_explicit(&g_next, 1, memory_order_relaxed);
  if (i >= kMaxSamples) return;
  const ucontext_t* uc = (const ucontext_t*)ctx;
  struct sample* s = &g_samples[i];
  const uintptr_t sp = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
  uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
  int d = 0;
  s->pc[d++] = (uint64_t)uc->uc_mcontext.gregs[REG_RIP];
  /* A library leaf (a libc routine, a syscall wrapper) keeps no frame
   * pointer, so its caller in the program would be lost: record the first
   * word near the stack pointer that points into the program's code. */
  uint64_t caller = 0;
  for (uintptr_t p = sp; p >= t_stack_lo && p + 8 <= t_stack_hi &&
                         p < sp + 64 * 8;
       p += 8) {
    const uint64_t w = *(const uint64_t*)p;
    if (w >= g_text_lo && w < g_text_hi) {
      caller = w;
      break;
    }
  }
  s->pc[d++] = caller;
  while (d < kMaxFrames && fp >= t_stack_lo && fp + 16 <= t_stack_hi &&
         (fp & 7) == 0) {
    const uintptr_t next = ((const uintptr_t*)fp)[0];
    const uintptr_t ret = ((const uintptr_t*)fp)[1];
    if (ret == 0) break;
    s->pc[d++] = ret;
    if (next <= fp) break;
    fp = next;
  }
  s->depth = (uint16_t)d;
  s->weight = (uint16_t)(1 + (si->si_overrun > 0xfffe ? 0xfffe : si->si_overrun));
  s->tid = t_tid;
}

static void arm(void) {
  t_tid = (int32_t)syscall(SYS_gettid);
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* lo = NULL;
    size_t size = 0;
    if (pthread_attr_getstack(&attr, &lo, &size) == 0) {
      t_stack_lo = (uintptr_t)lo;
      t_stack_hi = (uintptr_t)lo + size;
    }
    pthread_attr_destroy(&attr);
  }
  struct sigevent sev;
  memset(&sev, 0, sizeof sev);
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev._sigev_un._tid = t_tid;
  if (timer_create(CLOCK_THREAD_CPUTIME_ID, &sev, &t_timer) != 0) return;
  struct itimerspec its;
  its.it_interval.tv_sec = 0;
  its.it_interval.tv_nsec = kPeriodNs;
  its.it_value = its.it_interval;
  t_armed = 1;
  timer_settime(t_timer, 0, &its, NULL);
}

static void disarm(void) {
  if (!t_armed) return;
  t_armed = 0;
  timer_delete(t_timer);
}

struct start_args {
  void* (*fn)(void*);
  void* arg;
};

static void* start_armed(void* p) {
  struct start_args a = *(struct start_args*)p;
  free(p);
  arm();
  void* ret = a.fn(a.arg);
  disarm();
  return ret;
}

int pthread_create(pthread_t* th, const pthread_attr_t* attr,
                   void* (*fn)(void*), void* arg) {
  static int (*real)(pthread_t*, const pthread_attr_t*, void* (*)(void*),
                     void*);
  if (real == NULL) {
    real = (int (*)(pthread_t*, const pthread_attr_t*, void* (*)(void*),
                    void*))dlsym(RTLD_NEXT, "pthread_create");
  }
  struct start_args* a = malloc(sizeof *a);
  if (a == NULL) return real(th, attr, fn, arg);
  a->fn = fn;
  a->arg = arg;
  const int rc = real(th, attr, start_armed, a);
  if (rc != 0) free(a);
  return rc;
}

/* Output files live next to this library. */
static void out_path(char* buf, size_t n, const char* ext) {
  Dl_info info;
  const char* dir = ".";
  char tmp[4096];
  if (dladdr((void*)&arm, &info) != 0 && info.dli_fname != NULL) {
    snprintf(tmp, sizeof tmp, "%s", info.dli_fname);
    char* slash = strrchr(tmp, '/');
    if (slash != NULL) {
      *slash = '\0';
      dir = tmp;
    }
  }
  snprintf(buf, n, "%s/samples.%d.%s", dir, (int)getpid(), ext);
}

static void copy_file(const char* from, const char* to) {
  const int in = open(from, O_RDONLY);
  const int out = open(to, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  char buf[65536];
  ssize_t n;
  while (in >= 0 && out >= 0 && (n = read(in, buf, sizeof buf)) > 0) {
    if (write(out, buf, (size_t)n) != n) break;
  }
  if (in >= 0) close(in);
  if (out >= 0) close(out);
}

static int find_text(struct dl_phdr_info* info, size_t size, void* data) {
  (void)size;
  (void)data;
  /* The first object is the program itself. */
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)* ph = &info->dlpi_phdr[i];
    if (ph->p_type == PT_LOAD && (ph->p_flags & PF_X)) {
      g_text_lo = info->dlpi_addr + ph->p_vaddr;
      g_text_hi = g_text_lo + ph->p_memsz;
    }
  }
  return 1;
}

__attribute__((constructor)) static void sampler_init(void) {
  unsetenv("LD_PRELOAD");
  dl_iterate_phdr(find_text, NULL);
  g_samples = mmap(NULL, sizeof(struct sample) * kMaxSamples,
                   PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (g_samples == MAP_FAILED) return;
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  arm();
}

__attribute__((destructor)) static void sampler_dump(void) {
  atomic_store(&g_stopped, 1);
  disarm();
  if (g_samples == MAP_FAILED || g_samples == NULL) return;
  char path[4200];
  out_path(path, sizeof path, "maps");
  copy_file("/proc/self/maps", path);
  out_path(path, sizeof path, "bin");
  FILE* f = fopen(path, "wb");
  if (f == NULL) return;
  unsigned n = atomic_load(&g_next);
  if (n > kMaxSamples) n = kMaxSamples;
  for (unsigned i = 0; i < n; ++i) {
    /* A slot whose handler was cut short by exit has depth 0; skip it. */
    if (g_samples[i].depth > 0) fwrite(&g_samples[i], sizeof g_samples[i], 1, f);
  }
  fclose(f);
}
