// A 10 kHz stack sampler, loaded into a process with LD_PRELOAD.
//
//   cc -O2 -shared -fPIC -o sampler.so scripts/sampler.c
//   LD_PRELOAD=$PWD/sampler.so ./prog ...   # writes ./sampler.<pid>.out
//
// A CLOCK_MONOTONIC POSIX timer raises SIGPROF on the main thread every
// 100 µs of wall time. (On some virtual machines ITIMER_PROF and the
// process CPU-time clock tick at only ~250 Hz, whatever interval is
// asked for.) The handler records the interrupted PC and the return
// addresses of the frame-pointer chain into a preallocated buffer, so the
// profiled program must be built with -fno-omit-frame-pointer (and
// -mno-omit-leaf-frame-pointer). At exit the timer is deleted and the
// file is written: "maps" and the length of /proc/self/maps, its text,
// then "dropped N" (samples that did not fit the buffer), the "sym
// name address" lines, a "samples" line and one line per sample,
// "pc ret1 ret2 ..." in hex.
//
// Code without frame pointers (libc, libstdc++) leaves no chain of its
// own. For a sample outside the main program, the handler scans up from
// the stack pointer for the first word that points into the main
// program's code: the return address of the innermost call out of it,
// which names the caller that the frame-pointer chain would skip. libc's
// string and memory functions are IFUNCs whose chosen variants have no
// dynamic symbol, so their resolved addresses are written out as "sym"
// lines for the folder to name them by.
#define _GNU_SOURCE
#include <dlfcn.h>
#include <fcntl.h>
#include <link.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#if !defined(__x86_64__)
#error "sampler.c reads x86-64 registers from the signal context"
#endif

enum {
  kIntervalNs = 100000,             // 10 kHz
  kMaxDepth = 128,                  // frames kept per sample
  kBufferWords = 32 * 1024 * 1024,  // 256 MiB of address space, lazily used
  kScanWords = 512,                 // stack words searched for a caller
  kMaxText = 8,                     // executable segments of the program
};

static const char* const kResolved[] = {"memcpy", "memmove", "memset",
                                        "memcmp", "bcmp",    "memchr",
                                        "strlen", "strcmp"};

static uint64_t* g_buf;     // per sample: depth, then `depth` addresses
static size_t g_used;       // words of g_buf written
static uint64_t g_dropped;  // samples that did not fit
static uintptr_t g_stack_lo, g_stack_hi;
static timer_t g_timer;
static int g_armed;
static uintptr_t g_text_lo[kMaxText], g_text_hi[kMaxText];
static int g_texts;

static int InMainText(uintptr_t a) {
  for (int i = 0; i < g_texts; ++i) {
    if (a >= g_text_lo[i] && a < g_text_hi[i]) return 1;
  }
  return 0;
}

// The first object dl_iterate_phdr reports is the main program.
static int FindMainText(struct dl_phdr_info* info, size_t size, void* data) {
  (void)size;
  (void)data;
  for (int i = 0; i < info->dlpi_phnum && g_texts < kMaxText; ++i) {
    const ElfW(Phdr)* ph = &info->dlpi_phdr[i];
    if (ph->p_type == PT_LOAD && (ph->p_flags & PF_X)) {
      g_text_lo[g_texts] = info->dlpi_addr + ph->p_vaddr;
      g_text_hi[g_texts] = g_text_lo[g_texts] + ph->p_memsz;
      ++g_texts;
    }
  }
  return 1;
}

static void OnSample(int sig, siginfo_t* info, void* ctx) {
  (void)sig;
  (void)info;
  const ucontext_t* uc = (const ucontext_t*)ctx;
  if (g_used + 1 + kMaxDepth > kBufferWords) {
    ++g_dropped;
    return;
  }
  uint64_t* out = g_buf + g_used + 1;
  size_t depth = 0;
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
  out[depth++] = pc;
  uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
  uintptr_t caller = 0;
  if (!InMainText(pc)) {
    const uintptr_t* sp = (const uintptr_t*)uc->uc_mcontext.gregs[REG_RSP];
    for (int i = 0; i < kScanWords && (uintptr_t)(sp + i + 1) <= g_stack_hi;
         ++i) {
      if (InMainText(sp[i])) {
        caller = sp[i];
        out[depth++] = caller;
        break;
      }
    }
  }
  // Follow [saved rbp, return address] pairs while they stay on this
  // thread's stack and move towards its base.
  while (depth < kMaxDepth && fp % 8 == 0 && fp >= g_stack_lo &&
         fp + 16 <= g_stack_hi) {
    const uintptr_t* frame = (const uintptr_t*)fp;
    const uintptr_t ret = frame[1];
    if (ret == 0) break;
    if (ret != caller || depth != 2) out[depth++] = ret;
    if (frame[0] <= fp) break;
    fp = frame[0];
  }
  g_buf[g_used] = depth;
  g_used += 1 + depth;
}

static void WriteAll(int fd, const char* p, size_t n) {
  while (n > 0) {
    const ssize_t w = write(fd, p, n);
    if (w <= 0) return;
    p += w;
    n -= (size_t)w;
  }
}

__attribute__((constructor)) static void StartSampler(void) {
  pthread_attr_t attr;
  void* base;
  size_t size;
  if (pthread_getattr_np(pthread_self(), &attr) != 0) return;
  pthread_attr_getstack(&attr, &base, &size);
  pthread_attr_destroy(&attr);
  g_stack_lo = (uintptr_t)base;
  g_stack_hi = (uintptr_t)base + size;
  dl_iterate_phdr(FindMainText, NULL);

  void* buf = mmap(NULL, kBufferWords * sizeof(uint64_t),
                   PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (buf == MAP_FAILED) return;
  g_buf = (uint64_t*)buf;

  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = OnSample;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, NULL) != 0) return;

  struct sigevent sev;
  memset(&sev, 0, sizeof(sev));
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev._sigev_un._tid = (pid_t)syscall(SYS_gettid);
  if (timer_create(CLOCK_MONOTONIC, &sev, &g_timer) != 0) return;
  struct itimerspec its;
  memset(&its, 0, sizeof(its));
  its.it_interval.tv_nsec = kIntervalNs;
  its.it_value.tv_nsec = kIntervalNs;
  if (timer_settime(g_timer, 0, &its, NULL) != 0) return;
  g_armed = 1;
}

__attribute__((destructor)) static void StopSampler(void) {
  if (!g_armed) return;
  timer_delete(g_timer);
  g_armed = 0;
  sigset_t block;
  sigemptyset(&block);
  sigaddset(&block, SIGPROF);
  sigprocmask(SIG_BLOCK, &block, NULL);  // a tick already queued stays queued

  char path[64];
  snprintf(path, sizeof(path), "sampler.%d.out", (int)getpid());
  const int fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;

  // /proc files report size 0, so read the map text in chunks first.
  static char maps[1 << 20];
  size_t maps_len = 0;
  const int mfd = open("/proc/self/maps", O_RDONLY);
  if (mfd >= 0) {
    ssize_t r;
    while (maps_len < sizeof(maps) &&
           (r = read(mfd, maps + maps_len, sizeof(maps) - maps_len)) > 0) {
      maps_len += (size_t)r;
    }
    close(mfd);
  }
  char line[64];
  int n = snprintf(line, sizeof(line), "maps %zu\n", maps_len);
  WriteAll(fd, line, (size_t)n);
  WriteAll(fd, maps, maps_len);
  n = snprintf(line, sizeof(line), "dropped %llu\n",
               (unsigned long long)g_dropped);
  WriteAll(fd, line, (size_t)n);
  for (size_t i = 0; i < sizeof(kResolved) / sizeof(kResolved[0]); ++i) {
    const void* addr = dlsym(RTLD_DEFAULT, kResolved[i]);
    if (addr == NULL) continue;
    n = snprintf(line, sizeof(line), "sym %s %llx\n", kResolved[i],
                 (unsigned long long)(uintptr_t)addr);
    WriteAll(fd, line, (size_t)n);
  }
  WriteAll(fd, "samples\n", 8);

  static char text[1 << 16];
  size_t len = 0;
  for (size_t i = 0; i < g_used;) {
    const size_t depth = g_buf[i++];
    for (size_t d = 0; d < depth; ++d) {
      if (len + 20 > sizeof(text)) {
        WriteAll(fd, text, len);
        len = 0;
      }
      len += (size_t)snprintf(text + len, sizeof(text) - len, "%s%llx",
                              d == 0 ? "" : " ",
                              (unsigned long long)g_buf[i + d]);
    }
    text[len++] = '\n';
    i += depth;
  }
  WriteAll(fd, text, len);
  close(fd);
}
